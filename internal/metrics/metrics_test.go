package metrics

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.IncMessages(100)
	c.IncMessages(50)
	c.AddAgentTransfers(1, 1024)
	c.AddStepTxns(1)
	c.IncStepTxnAbort()
	c.AddCompTxns(1)
	c.IncCompTxnAbort()
	c.IncCompOps(3)
	c.IncRemoteCompBatch()
	c.IncSavepoints()
	c.IncStableWrite(10)
	c.IncNetFaultDrop()
	c.IncNetFaultDup()
	c.IncNetFaultReorder()
	c.IncNetUnreachableDrop()
	c.IncMailboxDrop()

	s := c.Snapshot()
	want := Snapshot{
		Messages: 2, BytesSent: 150,
		AgentTransfers: 1, AgentTransferByte: 1024,
		StepTxns: 1, StepTxnAborts: 1,
		CompTxns: 1, CompTxnAborts: 1,
		CompOps: 3, RemoteCompBatches: 1,
		Savepoints:   1,
		StableWrites: 1, StableBytes: 10,
		NetFaultDrops: 1, NetFaultDups: 1, NetFaultReorders: 1,
		NetUnreachableDrops: 1, MailboxDrops: 1,
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("snapshot = %+v, want %+v", s, want)
	}
}

func TestWireAndBatchCounters(t *testing.T) {
	var c Counters
	c.ObserveNetBatch(1)
	c.ObserveNetBatch(3)
	c.ObserveNetBatch(100)
	c.ObserveNetBatch(0) // empty flush: ignored
	c.AddWireBytes("q.prepare", 64)
	c.AddWireBytes("q.prepare", 36)
	c.AddWireBytes("q.commit", 8)

	s := c.Snapshot()
	if s.NetBatches != 3 || s.NetBatchedMsgs != 104 {
		t.Errorf("batches=%d msgs=%d", s.NetBatches, s.NetBatchedMsgs)
	}
	last := len(s.NetBatchSize) - 1
	if s.NetBatchSize[0] != 1 || s.NetBatchSize[2] != 1 || s.NetBatchSize[last] != 1 {
		t.Errorf("histogram = %v", s.NetBatchSize)
	}
	if s.WireBytesByKind["q.prepare"] != 100 || s.WireBytesByKind["q.commit"] != 8 {
		t.Errorf("byKind = %v", s.WireBytesByKind)
	}
	if s.WireMsgsByKind["q.prepare"] != 2 || s.WireMsgsByKind["q.commit"] != 1 {
		t.Errorf("msgsByKind = %v", s.WireMsgsByKind)
	}

	d := c.Snapshot().Sub(s)
	if d.NetBatches != 0 || len(d.WireBytesByKind) != 0 || len(d.WireMsgsByKind) != 0 {
		t.Errorf("self-diff not empty: %+v", d)
	}
	c.ObserveNetBatch(2)
	c.AddWireBytes("q.commit", 5)
	d = c.Snapshot().Sub(s)
	if d.NetBatches != 1 || d.NetBatchSize[1] != 1 || d.WireBytesByKind["q.commit"] != 5 {
		t.Errorf("diff = %+v", d)
	}
	if d.WireMsgsByKind["q.commit"] != 1 || len(d.WireMsgsByKind) != 1 {
		t.Errorf("msg diff = %v", d.WireMsgsByKind)
	}
}

// TestKindMapSubEdgeCases pins the Snapshot/Sub map-diff semantics both
// per-kind maps share: zero deltas are dropped, keys present only in
// the subtrahend come back negated, and an all-zero diff is nil so that
// equal snapshots compare equal to the zero Snapshot.
func TestKindMapSubEdgeCases(t *testing.T) {
	s := Snapshot{
		WireBytesByKind: map[string]int64{"a": 10, "b": 5, "zero": 0},
		WireMsgsByKind:  map[string]int64{"a": 2, "b": 5},
	}
	o := Snapshot{
		WireBytesByKind: map[string]int64{"a": 4, "only-o": 7, "ghost": 0},
		WireMsgsByKind:  map[string]int64{"a": 2, "b": 1},
	}
	d := s.Sub(o)
	wantBytes := map[string]int64{"a": 6, "b": 5, "only-o": -7}
	if !reflect.DeepEqual(d.WireBytesByKind, wantBytes) {
		t.Errorf("bytes diff = %v, want %v", d.WireBytesByKind, wantBytes)
	}
	// "a" has a zero message delta and must be dropped.
	wantMsgs := map[string]int64{"b": 4}
	if !reflect.DeepEqual(d.WireMsgsByKind, wantMsgs) {
		t.Errorf("msgs diff = %v, want %v", d.WireMsgsByKind, wantMsgs)
	}
	// Symmetry: an all-zero diff yields nil maps, never an empty map.
	if d := s.Sub(s); d.WireBytesByKind != nil || d.WireMsgsByKind != nil {
		t.Errorf("self-diff maps not nil: %+v", d)
	}
	// One side entirely empty: the other side's values pass through.
	if d := s.Sub(Snapshot{}); d.WireBytesByKind["b"] != 5 || d.WireMsgsByKind["a"] != 2 {
		t.Errorf("empty-o diff = %+v", d)
	}
	if d := (Snapshot{}).Sub(s); d.WireBytesByKind["b"] != -5 || d.WireMsgsByKind["a"] != -2 {
		t.Errorf("empty-s diff = %+v", d)
	}
}

func TestObserveLogBytesKeepsPeak(t *testing.T) {
	var c Counters
	c.ObserveLogBytes(100)
	c.ObserveLogBytes(50) // smaller: ignored
	c.ObserveLogBytes(200)
	c.ObserveLogBytes(150)
	if got := c.Snapshot().LogBytesPeak; got != 200 {
		t.Errorf("peak = %d, want 200", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	var c Counters
	c.IncMessages(10)
	before := c.Snapshot()
	c.IncMessages(5)
	c.AddStepTxns(1)
	diff := c.Snapshot().Sub(before)
	if diff.Messages != 1 || diff.BytesSent != 5 || diff.StepTxns != 1 {
		t.Errorf("diff = %+v", diff)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	const (
		workers = 8
		perW    = 1000
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.IncMessages(1)
				c.IncCompOps(2)
				c.ObserveLogBytes(int64(i))
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Messages != workers*perW {
		t.Errorf("messages = %d, want %d", s.Messages, workers*perW)
	}
	if s.CompOps != 2*workers*perW {
		t.Errorf("compOps = %d", s.CompOps)
	}
	if s.LogBytesPeak != perW-1 {
		t.Errorf("peak = %d, want %d", s.LogBytesPeak, perW-1)
	}
}

func TestSchedulerCounters(t *testing.T) {
	var c Counters
	c.IncSchedClaim(5)
	c.IncSchedClaim(3)
	c.IncClaimConflict()
	c.IncLockConflictAbort()
	c.IncSchedRetry()
	if n := c.StepStarted(); n != 1 {
		t.Errorf("in-flight after start = %d", n)
	}
	c.StepStarted()
	c.StepFinished(10*time.Millisecond, true)
	c.StepFinished(20*time.Millisecond, false) // failed attempt: busy, no latency sample
	s := c.Snapshot()
	if s.SchedClaims != 2 || s.SchedQueueDepthPeak != 5 {
		t.Errorf("claims=%d depthPeak=%d", s.SchedClaims, s.SchedQueueDepthPeak)
	}
	if s.SchedClaimConflicts != 1 || s.SchedLockAborts != 1 || s.SchedRetries != 1 {
		t.Errorf("conflicts=%d lockAborts=%d retries=%d",
			s.SchedClaimConflicts, s.SchedLockAborts, s.SchedRetries)
	}
	if s.SchedInFlightPeak != 2 || c.InFlight() != 0 {
		t.Errorf("inFlightPeak=%d inFlight=%d", s.SchedInFlightPeak, c.InFlight())
	}
	if s.SchedWorkerBusyNanos != int64(30*time.Millisecond) {
		t.Errorf("busy=%d", s.SchedWorkerBusyNanos)
	}
	d := s.Sub(Snapshot{SchedClaims: 1, SchedInFlightPeak: 99})
	if d.SchedClaims != 1 || d.SchedInFlightPeak != 2 {
		t.Errorf("diff claims=%d peak=%d", d.SchedClaims, d.SchedInFlightPeak)
	}
}

func TestStepLatencyPercentiles(t *testing.T) {
	var c Counters
	if s := c.StepLatency(); s != (LatencySummary{}) {
		t.Errorf("empty latency = %+v", s)
	}
	for i := 1; i <= 1000; i++ {
		c.StepStarted()
		c.StepFinished(time.Duration(i)*time.Millisecond, true)
	}
	s := c.StepLatency()
	if s.Count != 1000 {
		t.Errorf("n = %d", s.Count)
	}
	if s.P50 < 450*time.Millisecond || s.P50 > 550*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P90 < 850*time.Millisecond || s.P90 > 950*time.Millisecond {
		t.Errorf("p90 = %v", s.P90)
	}
	if s.P99 < 950*time.Millisecond || s.P99 > time.Second {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.P999 < s.P99 || s.P999 > time.Second {
		t.Errorf("p999 = %v", s.P999)
	}
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total != 1000 {
		t.Errorf("bucket total = %d, want 1000 (buckets %v)", total, s.Buckets)
	}
}

func TestStepLatencyBuckets(t *testing.T) {
	var c Counters
	obs := func(d time.Duration) {
		c.StepStarted()
		c.StepFinished(d, true)
	}
	obs(50 * time.Microsecond)  // cell 0 (≤100µs)
	obs(100 * time.Microsecond) // cell 0 (boundary is inclusive)
	obs(2 * time.Millisecond)   // cell 3 (≤3ms)
	obs(time.Minute)            // overflow cell
	s := c.StepLatency()
	last := len(s.Buckets) - 1
	if s.Buckets[0] != 2 || s.Buckets[3] != 1 || s.Buckets[last] != 1 {
		t.Errorf("buckets = %v", s.Buckets)
	}
}

func TestStepLatencyRingBounded(t *testing.T) {
	var c Counters
	for i := 0; i < latRingSize+100; i++ {
		c.StepStarted()
		c.StepFinished(time.Millisecond, true)
	}
	s := c.StepLatency()
	if s.Count != int64(latRingSize+100) {
		t.Errorf("count = %d", s.Count)
	}
	var resident int64
	for _, n := range s.Buckets {
		resident += n
	}
	if resident != int64(latRingSize) {
		t.Errorf("reservoir holds %d samples, want %d", resident, latRingSize)
	}
}
