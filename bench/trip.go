package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/node"
)

// The per-trip constants, pinned from a single-trip run: with
// review/book=bad a trip commits getcash and buy, aborts check on the
// rollback request, compensates buy and getcash, then re-runs all three.
const (
	tripStepTxns = 5
	tripCompTxns = 2
	tripWallet   = 500 // USD the agent carries home
)

var tripNodes = []string{"A", "B", "C"} // bank, shop, directory

// children tracks every child process group the harness has started, so
// that any exit path — return, panic, signal — can kill them.
var children struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]bool
}

func trackChild(cmd *exec.Cmd, alive bool) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.procs == nil {
		children.procs = make(map[*exec.Cmd]bool)
	}
	if alive {
		children.procs[cmd] = true
	} else {
		delete(children.procs, cmd)
	}
}

// killChildren kills every tracked process group and waits until the
// goroutines waiting on them have reaped them.
func killChildren() {
	children.mu.Lock()
	for cmd := range children.procs {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	children.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		children.mu.Lock()
		n := len(children.procs)
		children.mu.Unlock()
		if n == 0 {
			return
		}
	}
}

// schedIdle is Linux's SCHED_IDLE policy: run only when nothing else wants
// the CPU.
const schedIdle = 5

// startSpinners keeps every CPU of the machine from going idle while the
// benchmark runs, with one busy loop per CPU at idle priority. On the
// shared virtual machines the benchmark runs on, a virtual CPU that halts
// has to be rescheduled by the host before it can take a timer or a
// packet; that wake-up costs from 0.1 to several milliseconds depending
// on the host's load, and it sets the latency of the two workloads that
// wait more than they compute (README.md, "Host conditioning"). The
// spinners give way to any real work at once and their CPU time is not
// counted. Best effort: without sh or the scheduler call the benchmark
// runs unconditioned.
func startSpinners() {
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command("sh", "-c", "while :; do :; done")
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return
		}
		trackChild(cmd, true)
		go func() {
			_ = cmd.Wait()
			trackChild(cmd, false)
		}()
		var param struct{ priority int32 }
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(cmd.Process.Pid), schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
			// A busy loop at normal priority would take a CPU away.
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
			return
		}
	}
}

// tripNode is one agentnode child process.
type tripNode struct {
	name    string
	cmd     *exec.Cmd
	obs     string // admin-plane address
	logPath string
	exited  chan struct{} // closed once Wait returned
	waitErr error
}

// tripSystem is the TCP system under test: three agentnode processes and
// one in-process ctl endpoint owning every trip.
type tripSystem struct {
	rec      *recorder
	dir      string
	nodes    []*tripNode
	ep       *network.TCPEndpoint
	counters *metrics.Counters // the ctl endpoint's own sends
	recvWG   sync.WaitGroup

	dead     chan struct{} // closed when a node exits before close()
	deadOnce sync.Once
	closing  bool // under mu

	mu       sync.Mutex
	waiters  map[string]chan node.Done
	recvByte int64 // payload bytes the ctl endpoint received
	seen     int
	samples  [][]byte // containers seen by the owner, for the codec probes
}

// newTripSystem spawns the three nodes from the agentnode binary, waits
// until each is healthy and seeded, and opens the ctl endpoint.
func newTripSystem(w workload, dir, agentnode string, rec *recorder) (_ *tripSystem, err error) {
	s := &tripSystem{rec: rec, dir: dir, counters: &metrics.Counters{}, waiters: make(map[string]chan node.Done), dead: make(chan struct{})}
	defer func() {
		if err != nil {
			_ = s.close()
		}
	}()
	addrs := make(map[string]string)
	for _, name := range append([]string{"ctl"}, tripNodes...) {
		if addrs[name], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	var peers []string
	for name, addr := range addrs {
		peers = append(peers, name+"="+addr)
	}
	var accounts []string
	for o := 0; o < w.owners; o++ {
		accounts = append(accounts, fmt.Sprintf("bank:acct=owner%d:1000000000000", o))
	}
	setup := map[string][2]string{
		"A": {"bank=bank", strings.Join(accounts, ";")},
		"B": {"shop=shop", "shop:item=book:1000000:100"},
		"C": {"dir=dir", "dir:key=review/book:bad"},
	}
	for _, name := range tripNodes {
		obs, err := freeAddr()
		if err != nil {
			return nil, err
		}
		n := &tripNode{name: name, obs: obs, logPath: filepath.Join(dir, name+".log"), exited: make(chan struct{})}
		logFile, err := os.Create(n.logPath)
		if err != nil {
			return nil, err
		}
		n.cmd = exec.Command(agentnode,
			"-name", name, "-listen", addrs[name], "-data", filepath.Join(dir, "data-"+name),
			"-peers", strings.Join(peers, ","), "-obs-addr", obs, "-sync=false",
			"-resources", setup[name][0], "-seed", setup[name][1])
		n.cmd.Stdout, n.cmd.Stderr = logFile, logFile
		// Own process group, so one kill reaches anything the child
		// spawns; Pdeathsig covers the harness dying without cleanup.
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		err = n.cmd.Start()
		logFile.Close()
		if err != nil {
			return nil, fmt.Errorf("start node %s: %w", name, err)
		}
		trackChild(n.cmd, true)
		go func() {
			n.waitErr = n.cmd.Wait()
			trackChild(n.cmd, false)
			close(n.exited)
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if !closing {
				s.deadOnce.Do(func() { close(s.dead) })
			}
		}()
		s.nodes = append(s.nodes, n)
	}
	for _, n := range s.nodes {
		seeds := strings.Count(setup[n.name][1], ";") + 1
		if err := n.awaitReady(seeds, 10*time.Second); err != nil {
			return nil, err
		}
	}
	s.ep, err = network.NewTCP(network.TCPConfig{Name: "ctl", Listen: addrs["ctl"], Peers: addrs, Counters: s.counters})
	if err != nil {
		return nil, err
	}
	s.recvWG.Add(1)
	go s.receive()
	return s, nil
}

// awaitReady polls /healthz, then the node's log for its seeding lines
// (agentnode seeds after it reports healthy).
func (n *tripNode) awaitReady(seeds int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-n.exited:
			return fmt.Errorf("node %s died: %v\n%s", n.name, n.waitErr, n.logTail())
		default:
		}
		if body, err := httpGet("http://" + n.obs + "/healthz"); err == nil && strings.HasPrefix(body, "ok") {
			if log, _ := os.ReadFile(n.logPath); strings.Count(string(log), "msg=seeded") >= seeds {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s not healthy and seeded within %v\n%s", n.name, timeout, n.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

func (n *tripNode) logTail() string {
	log, _ := os.ReadFile(n.logPath)
	lines := strings.Split(strings.TrimSpace(string(log)), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// receive hands completion notifications to the waiting owners and
// acknowledges them, as cmd/agentctl does.
func (s *tripSystem) receive() {
	defer s.recvWG.Done()
	for msg := range s.ep.Recv() {
		s.mu.Lock()
		s.recvByte += int64(len(msg.Payload))
		s.mu.Unlock()
		if msg.Kind != node.KindAgentDone {
			continue
		}
		t0 := s.rec.now()
		done, err := node.DecodeDone(msg.Payload)
		if err != nil {
			continue
		}
		s.rec.add(done.AgentID, spanDecode, "owner", spanAgent, t0)
		if t0 != 0 {
			s.sampleContainer(done.Agent)
		}
		if ack, err := node.EncodeDoneAck(done.AgentID); err == nil {
			_ = s.ep.Send(msg.From, node.KindAgentDoneAck, ack)
		}
		s.mu.Lock()
		ch := s.waiters[done.AgentID]
		delete(s.waiters, done.AgentID)
		s.mu.Unlock()
		if ch != nil {
			ch <- done
		}
	}
}

// run sends one shopping trip through the cluster and waits for it.
func (s *tripSystem) run(owner, n int, _ *rand.Rand) (id, problem string, err error) {
	id = fmt.Sprintf("o%d-%06d", owner, n)
	root := s.rec.now()
	defer func() { s.rec.add(id, spanAgent, "owner", "", root) }()
	a, entered, err := demo.NewAgent(id, fmt.Sprintf("owner%d", owner), "A", "B", "C")
	if err != nil {
		return id, err.Error(), err
	}
	a.Owner = "ctl"
	if err := node.AppendInitialSavepoints(a, entered, core.StateLogging); err != nil {
		return id, err.Error(), err
	}
	t0 := s.rec.now()
	data, err := node.EncodeContainer(&node.Container{Mode: node.ModeStep, Agent: a})
	if err != nil {
		return id, err.Error(), err
	}
	launch, err := node.EncodeLaunch(id, data)
	if err != nil {
		return id, err.Error(), err
	}
	s.rec.add(id, spanEncode, "owner", spanAgent, t0)
	ch := make(chan node.Done, 1)
	s.mu.Lock()
	s.waiters[id] = ch
	s.mu.Unlock()
	if t0 != 0 {
		s.sampleContainer(a)
	}
	t1 := s.rec.now()
	err = s.ep.Send("A", node.KindAgentLaunch, launch)
	s.rec.add(id, spanLaunch, "owner", spanAgent, t1)
	if err != nil {
		return id, err.Error(), err
	}
	timer := time.NewTimer(launchTimeout)
	defer timer.Stop()
	select {
	case done := <-ch:
		return id, checkTrip(done), nil
	case <-s.dead:
		err := s.deadNode()
		return id, err.Error(), err
	case <-timer.C:
		s.mu.Lock()
		delete(s.waiters, id)
		s.mu.Unlock()
		return id, "timed out", nil
	}
}

// deadNode reports the first node found exited, with its log tail.
func (s *tripSystem) deadNode() error {
	for _, n := range s.nodes {
		select {
		case <-n.exited:
			return fmt.Errorf("node %s died: %v\n%s", n.name, n.waitErr, n.logTail())
		default:
		}
	}
	return fmt.Errorf("a node died")
}

// wireBytes is what a TCP cluster lets an outsider count: agentnode gives
// its TCP endpoint no Counters, so the nodes' bytes_sent read 0. Visible
// are the containers the nodes hand to each other (agent_transfer_byte)
// and everything the ctl endpoint sent and received.
func (s *tripSystem) wireBytes(delta counts) float64 {
	return delta.get("agent_transfer_byte") + delta.get("bytes_sent") + delta["bench_ctl_recv_bytes_total"]
}

// stableBytes likewise comes from outside: agentnode opens its store
// without Counters, so the bytes are read off the WAL directories.
func (s *tripSystem) stableBytes(delta counts) float64 {
	return delta["bench_wal_appended_bytes_total"]
}

func (s *tripSystem) containers() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// sampleContainer keeps some of the containers the owner handles — fresh
// at launch, carrying the trip's log at completion — for the codec probes.
func (s *tripSystem) sampleContainer(a *agent.Agent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if a == nil || s.seen%sampleEvery != 0 || len(s.samples) >= maxSamples {
		return
	}
	if data, err := node.EncodeContainer(&node.Container{Mode: node.ModeStep, Agent: a}); err == nil {
		s.samples = append(s.samples, data)
	}
}

// checkTrip verifies what the rolled-back-and-rerun trip must carry home.
func checkTrip(done node.Done) string {
	switch {
	case done.Failed:
		return "failed: " + done.Reason
	case done.Agent == nil:
		return "result carries no agent"
	}
	var decision, review string
	if err := done.Agent.SRO.MustGet("decision", &decision); err != nil || decision != "skip" {
		return fmt.Sprintf("decision %q, want skip", decision)
	}
	if err := done.Agent.SRO.MustGet("review", &review); err != nil || review != "bad" {
		return fmt.Sprintf("review %q, want bad", review)
	}
	if noted, err := done.Agent.WRO.Has("note"); err != nil || !noted {
		return "no refund note"
	}
	wallet, err := demo.Wallet(done.Agent.WRO)
	if err != nil || wallet.Total("USD") != tripWallet {
		return fmt.Sprintf("wallet %d USD, want %d", wallet.Total("USD"), tripWallet)
	}
	return ""
}

// scrape sums the three nodes' /metrics with the ctl endpoint's own
// counters.
func (s *tripSystem) scrape() (counts, error) {
	c := make(counts)
	if err := c.merge(renderCounters(s.counters)); err != nil {
		return nil, err
	}
	for _, n := range s.nodes {
		text, err := httpGet("http://" + n.obs + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape node %s: %w\n%s", n.name, err, n.logTail())
		}
		if err := c.merge(text); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	c["bench_ctl_recv_bytes_total"] = float64(s.recvByte)
	s.mu.Unlock()
	walBytes, err := s.walAppended()
	c["bench_wal_appended_bytes_total"] = float64(walBytes)
	return c, err
}

// walSegmentSize is agentnode's default -wal-segment.
const walSegmentSize = 4 << 20

// walAppended estimates the bytes the nodes' WAL engines have appended,
// from outside: the sizes of the segment files present plus one rotation
// threshold for every lower-numbered segment the compactor has deleted
// (a segment rotates once it reaches the threshold).
func (s *tripSystem) walAppended() (int64, error) {
	var total int64
	for _, n := range s.nodes {
		segs, err := filepath.Glob(filepath.Join(s.dir, "data-"+n.name, "*.seg"))
		if err != nil {
			return 0, err
		}
		var highest int64
		for _, seg := range segs {
			st, err := os.Stat(seg)
			if err != nil {
				continue // deleted by the compactor between Glob and Stat
			}
			total += st.Size()
			var id int64
			if _, err := fmt.Sscanf(filepath.Base(seg), "%d.seg", &id); err == nil && id > highest {
				highest = id
			}
		}
		if deleted := highest - int64(len(segs)); deleted > 0 {
			total += deleted * walSegmentSize
		}
	}
	return total, nil
}

func (s *tripSystem) cpu() (map[string]time.Duration, error) {
	out := map[string]time.Duration{"self": selfCPU()}
	for _, n := range s.nodes {
		d, err := pidCPU(n.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("node %s: %w\n%s", n.name, err, n.logTail())
		}
		out[n.name] = d
	}
	return out, nil
}

func (s *tripSystem) peakRSS() int64 {
	total := peakRSS(0)
	for _, n := range s.nodes {
		total += peakRSS(n.cmd.Process.Pid)
	}
	return total
}

// verify checks the scraped transaction counts against the per-trip
// constants.
func (s *tripSystem) verify(completed int, delta counts) []string {
	var problems []string
	if got, want := delta.get("step_txns"), float64(completed*tripStepTxns); got != want {
		problems = append(problems, fmt.Sprintf("step txns %v, want %v", got, want))
	}
	if got, want := delta.get("comp_txns"), float64(completed*tripCompTxns); got != want {
		problems = append(problems, fmt.Sprintf("comp txns %v, want %v", got, want))
	}
	return problems
}

// close stops the ctl endpoint, then kills and reaps every child.
func (s *tripSystem) close() error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	if s.ep != nil {
		s.ep.Close()
		s.recvWG.Wait()
	}
	var firstErr error
	for _, n := range s.nodes {
		_ = syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL)
		select {
		case <-n.exited:
		case <-time.After(10 * time.Second):
			firstErr = fmt.Errorf("node %s did not exit", n.name)
		}
	}
	return firstErr
}
