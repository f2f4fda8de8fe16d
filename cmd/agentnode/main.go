// Command agentnode runs one agent-system node as a standalone OS process
// over TCP, with a disk-backed stable store — the multi-process deployment
// of the system (binary frames on the wire, binary agent containers inside
// them and on disk; a data directory still holding gob containers from
// before that codec is refused at start). Killing the process and restarting it with the same -data
// directory exercises the crash-recovery protocol for real. The default -store=wal engine appends commits to
// checksummed log segments with index checkpoints, so restart replays
// only the log tail written since the last checkpoint; -store=file keeps
// the one-file-per-key layout of earlier deployments (the engines do not
// migrate in place — restart existing data dirs with the engine that
// wrote them).
//
// Example three-node cluster (plus the agentctl client as peer "ctl"):
//
//	agentnode -name A -listen :7001 -data /tmp/a \
//	  -peers 'A=localhost:7001,B=localhost:7002,C=localhost:7003,ctl=localhost:7000' \
//	  -resources bank=bank -seed 'bank:acct=alice:1000'
//	agentnode -name B -listen :7002 -data /tmp/b -peers ... \
//	  -resources shop=shop -seed 'shop:item=book:5:100'
//	agentnode -name C -listen :7003 -data /tmp/c -peers ... \
//	  -resources dir=dir -seed 'dir:key=review/book:bad'
//	agentctl -name ctl -listen :7000 -peers ... launch
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/demo"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/stable"
	_ "repro/internal/stable/wal" // registers the wal engine for stable.Open
	"repro/internal/trace"
	"repro/internal/txn"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "agentnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("agentnode", flag.ContinueOnError)
	var (
		name      = fs.String("name", "", "node name (required)")
		listen    = fs.String("listen", "", "listen address, e.g. :7001 (required)")
		dataDir   = fs.String("data", "", "stable storage directory (required)")
		peersFlag = fs.String("peers", "", "comma-separated name=host:port peer list")
		resFlag   = fs.String("resources", "", "comma-separated kind=name resource list (bank=, shop=, dir=)")
		seedFlag  = fs.String("seed", "", "semicolon-separated seeding directives: "+demo.FormatHint())
		optimized = fs.Bool("optimized", true, "use the optimized (Figure 5) rollback algorithm")
		workers   = fs.Int("workers", 1, "concurrent step-transaction workers (1 = the paper's serial node model)")
		obsAddr   = fs.String("obs-addr", "", "admin-plane listen address serving /metrics, /healthz, /trace, /ring and /debug/pprof (empty disables)")
		members   = fs.String("members", "", "comma-separated peer node names seeding the membership view; enables consistent-hash placement (@ring itinerary locations) and live rebalancing (empty keeps static wiring)")
		vnodes    = fs.Int("vnodes", 0, "virtual points per member on the consistent-hash ring (0 = default 128; only with -members)")
		traceRing = fs.Int("trace-ring", 0, "causal trace ring size per node (0 = default 16384, negative disables tracing)")
	)
	// The storage knobs (-store, -sync, -wal-*, -repl*) are the shared
	// flag surface: they parse into a stable.Spec in one place.
	sflags := stable.BindFlags(fs, stable.Spec{Engine: "wal", Sync: true})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *listen == "" || *dataDir == "" {
		return fmt.Errorf("-name, -listen and -data are required")
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("node", *name)
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}

	spec, err := sflags.Spec()
	if err != nil {
		return err
	}
	if spec.Repl.Enabled() {
		// Replication needs the multi-node runtime to wire a transport
		// between primaries and replica hosts (see stable.Spec.Repl); a
		// standalone process has no peers to hold its replicas.
		return fmt.Errorf("-repl is not supported by the standalone agentnode (replication is wired by the cluster runtime)")
	}
	spec.Dir = *dataDir
	store, err := openStore(spec, logger)
	if err != nil {
		return err
	}
	defer stable.Close(store)
	ep, err := network.NewTCP(network.TCPConfig{
		Name:   *name,
		Listen: *listen,
		Peers:  peers,
	})
	if err != nil {
		return err
	}
	defer ep.Close()

	reg := agent.NewRegistry()
	if err := demo.Register(reg); err != nil {
		return err
	}
	factories, err := parseResources(*resFlag)
	if err != nil {
		return err
	}
	counters := &metrics.Counters{}
	var tracer *trace.Tracer
	if *traceRing >= 0 {
		size := *traceRing
		if size == 0 {
			size = trace.DefaultRingSize
		}
		tracer = trace.New(*name, size, func() int64 { return time.Now().UnixNano() })
	}
	var mgr *membership.Manager
	if *members != "" {
		// Seeds are epoch-0 hints ("announce to these"); the flood and the
		// anti-entropy replies converge the real view after boot.
		var seed []membership.Member
		for _, p := range strings.Split(*members, ",") {
			if p = strings.TrimSpace(p); p != "" && p != *name {
				seed = append(seed, membership.Member{Name: p})
			}
		}
		mgr = membership.NewManager(*name, *vnodes, seed...)
	}
	n, err := node.New(node.Config{
		Name:       *name,
		Optimized:  *optimized,
		Workers:    *workers,
		Counters:   counters,
		Tracer:     tracer,
		Logger:     logger,
		Membership: mgr,
	}, ep, store, reg, factories...)
	if err != nil {
		return err
	}
	n.Start()
	defer n.Stop()

	var obsSrv *http.Server
	if *obsAddr != "" {
		obsSrv = &http.Server{
			Addr: *obsAddr,
			Handler: obs.Handler(obs.Config{
				Node:     *name,
				Counters: counters,
				Tracer:   tracer,
				Healthy: func() bool {
					select {
					case <-n.Ready():
						return true
					default:
						return false
					}
				},
				Membership: mgr,
				Queue:      n.Queue(),
				Adopted:    n.Adopted,
			}),
		}
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("admin plane failed", "addr", *obsAddr, "err", err)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = obsSrv.Shutdown(ctx)
		}()
		logger.Info("admin plane listening", "addr", *obsAddr)
	}

	<-n.Ready()
	logger.Info("node ready", "addr", ep.Addr(), "data", *dataDir)

	if *seedFlag != "" {
		if err := seed(n, *seedFlag, logger); err != nil {
			return err
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("node shutting down")
	return nil
}

// openStore builds the node's stable store through the unified
// stable.Open path. Opening a data directory that was written by a
// different engine is refused rather than silently starting empty — the
// layouts are disjoint, so the agent queue and resource states would all
// be invisible.
func openStore(spec stable.Spec, logger *slog.Logger) (stable.Store, error) {
	hasFileLayout := false
	if _, err := os.Stat(filepath.Join(spec.Dir, "kv")); err == nil {
		hasFileLayout = true
	}
	hasWALLayout := false
	if segs, _ := filepath.Glob(filepath.Join(spec.Dir, "*.seg")); len(segs) > 0 {
		hasWALLayout = true
	}
	switch spec.Engine {
	case "wal":
		if hasFileLayout {
			return nil, fmt.Errorf("data dir %s holds a file-store layout; restart with -store=file (engines do not migrate in place)", spec.Dir)
		}
	case "file":
		if hasWALLayout {
			return nil, fmt.Errorf("data dir %s holds a wal layout; restart with -store=wal (engines do not migrate in place)", spec.Dir)
		}
	case "mem":
		logger.Warn("-store=mem is volatile; a restart loses the input queue and all resource state")
	}
	return stable.Open(spec)
}

func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad peer %q (want name=host:port)", part)
		}
		peers[kv[0]] = kv[1]
	}
	return peers, nil
}

func parseResources(s string) ([]node.ResourceFactory, error) {
	var out []node.ResourceFactory
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad resource %q (want kind=name)", part)
		}
		kind, rname := kv[0], kv[1]
		switch kind {
		case "bank":
			out = append(out, func(st stable.Store) (resource.Resource, error) {
				return resource.NewBank(st, rname, false)
			})
		case "shop":
			out = append(out, func(st stable.Store) (resource.Resource, error) {
				return resource.NewShop(st, rname, resource.ShopConfig{
					Currency: "USD", Mode: resource.RefundCash, FeePercent: 10,
				})
			})
		case "dir":
			out = append(out, func(st stable.Store) (resource.Resource, error) {
				return resource.NewDirectory(st, rname)
			})
		case "exchange":
			out = append(out, func(st stable.Store) (resource.Resource, error) {
				return resource.NewExchange(st, rname, 10)
			})
		default:
			return nil, fmt.Errorf("unknown resource kind %q", kind)
		}
	}
	return out, nil
}

// seed applies idempotent seeding directives inside local transactions;
// directives whose target already exists are skipped, so restarts with the
// same flags are safe.
func seed(n *node.Node, directives string, logger *slog.Logger) error {
	for _, d := range strings.Split(directives, ";") {
		d = strings.TrimSpace(d)
		if d == "" {
			continue
		}
		parts := strings.Split(d, ":")
		if len(parts) < 3 {
			return fmt.Errorf("bad seed %q (want %s)", d, demo.FormatHint())
		}
		tx, err := n.Manager().Begin()
		if err != nil {
			return err
		}
		if err := applySeed(n, tx, parts); err != nil {
			_ = tx.Abort()
			return fmt.Errorf("seed %q: %w", d, err)
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		logger.Info("seeded", "directive", d)
	}
	return nil
}

func applySeed(n *node.Node, tx *txn.Tx, parts []string) error {
	rname := parts[0]
	r, ok := n.Resource(rname)
	if !ok {
		return fmt.Errorf("no resource %q", rname)
	}
	kv := strings.SplitN(parts[1], "=", 2)
	if len(kv) != 2 {
		return fmt.Errorf("bad key %q", parts[1])
	}
	switch res := r.(type) {
	case *resource.Bank:
		bal, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return err
		}
		if _, err := res.Balance(tx, kv[1]); err == nil {
			return nil // already seeded
		}
		return res.OpenAccount(tx, kv[1], bal)
	case *resource.Shop:
		if len(parts) < 4 {
			return fmt.Errorf("shop seed needs qty and price")
		}
		qty, err := strconv.Atoi(parts[2])
		if err != nil {
			return err
		}
		price, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return err
		}
		if have, err := res.StockOf(tx, kv[1]); err == nil && have > 0 {
			return nil
		}
		return res.Restock(tx, kv[1], qty, price)
	case *resource.Directory:
		return res.Put(tx, kv[1], parts[2])
	default:
		return fmt.Errorf("cannot seed resource kind %T", r)
	}
}
