// Command doramon is the live-systems demo (§2.2): it runs a
// conventional engine and a DORA prototype side by side over identical
// TATP databases, drives both with a configurable client load, serves
// real-time statistics over a TCP socket (one JSON snapshot per line —
// the interface the demo GUI consumes), and renders a terminal view.
//
// Usage:
//
//	doramon -subscribers 20000 -clients 16 -listen 127.0.0.1:7070
//
// Attach any client (e.g. `nc 127.0.0.1 7070`) for the JSON stream.
// The built-in balancer keeps re-partitioning DORA as the skewed load
// (a slowly circling hot spot) moves.
//
// doramon is a monitor, not a benchmark. With -replica (the default) its
// engine rows are not a comparison: the replica's 4 offload readers load
// only DORA's side, while the conventional engine has no replica. Run
// with -replica=false to watch both engines under the same load.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"dora/internal/buffer"
	"dora/internal/dora"
	"dora/internal/dora/balance"
	"dora/internal/engine/conventional"
	"dora/internal/maint"
	"dora/internal/metrics"
	"dora/internal/monitor"
	"dora/internal/repl"
	"dora/internal/sm"
	"dora/internal/trace"
	"dora/internal/wal"
	"dora/internal/workload"
	"dora/internal/workload/tatp"
)

func main() {
	var (
		subs    = flag.Int64("subscribers", 20000, "TATP scale")
		clients = flag.Int("clients", 16, "clients per engine")
		listen  = flag.String("listen", "127.0.0.1:7070", "stats socket address")
		period  = flag.Duration("period", time.Second, "snapshot period")
		dur     = flag.Duration("duration", 0, "run time (0 = until interrupt)")
		hotFrac = flag.Float64("hot", 0.8, "fraction of accesses hitting the hot spot")
		replica = flag.Bool("replica", true, "run an in-process read replica of the DORA database")
		semiK   = flag.Int("semisync", 0, "semi-sync commit rule: acks required per commit (0 = async)")
		redoW   = flag.Int("redo-workers", 4, "replica parallel-redo appliers (0 or 1 = serial replay)")
		adaptW  = flag.Bool("adaptive-redo", false, "let the replica's applier pool resize itself from queue depth")
		httpOn  = flag.String("http", "", "HTTP observability address (/metrics, /snapshot, /debug/pprof; empty = off)")
		sample  = flag.Int("trace-sample", 64, "latency tracer: trace 1 in N transactions (0 = tracing off)")
		slowMS  = flag.Int("trace-slow-ms", 0, "emit JSON span trees for traced txns slower than this (0 = off)")
	)
	flag.Parse()

	// The latency tracer follows 1/N of the DORA engine's transactions end
	// to end; its per-stage aggregates feed the snapshot stream and the
	// /metrics exposition.
	var tracer *trace.Tracer
	if *sample > 0 {
		tracer = trace.New(trace.Config{
			SampleEvery:   *sample,
			SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
		})
		defer tracer.Close()
	}

	fmt.Printf("loading two TATP databases (%d subscribers each)...\n", *subs)
	mk := func(store wal.Store, tr *trace.Tracer) (*tatp.DB, *metrics.CriticalSectionStats) {
		cs := &metrics.CriticalSectionStats{}
		s, err := sm.Open(sm.Options{Frames: 1 << 14, CS: cs, LogStore: store, Spans: tr})
		fatal(err)
		db, err := tatp.Load(s, *subs)
		fatal(err)
		return db, cs
	}
	convDB, _ := mk(nil, nil)
	doraStore := wal.NewMemStore()
	doraDB, doraCS := mk(doraStore, tracer)
	_ = doraCS

	conv := conventional.New(convDB.SM)
	de := dora.New(doraDB.SM, dora.Config{PartitionsPerTable: 2, Domains: doraDB.Domains(), Tracer: tracer})
	// Background physical maintenance keeps the partitioned layout
	// converged behind the balancer's moves, and the balancer consults
	// its convergence state so it never re-partitions a table
	// mid-migration (maintenance-aware balancing).
	md := maint.New(doraDB.SM, de, maint.Config{})
	md.Start()
	defer md.Close()
	// The flush daemon hardens dirty pages in the background; stamped
	// pages go through the owner-coordinated copy-on-write snapshot ship,
	// so owner writes stay latch-free while cleaning runs.
	cl := buffer.NewCleaner(doraDB.SM.Pool, buffer.CleanerConfig{})
	cl.Start()
	defer cl.Close()
	bal := balance.NewBalancer(de, balance.Policy{Every: 100 * time.Millisecond, MinParts: 2},
		"subscriber", "access_info", "special_facility", "call_forwarding")
	bal.SetMaintGate(md.Converging)
	bal.Start()
	defer bal.Stop()

	// A hot spot that slowly circles the key space (the demo slider).
	hot := workload.NewHotspot(1, *subs, *hotFrac, *subs/20)
	go func() {
		for i := 0; ; i++ {
			time.Sleep(3 * time.Second)
			hot.SetCenter(1 + (hot.Center()+*subs/10)%*subs)
		}
	}()

	// Replication: the DORA database ships its log to an in-process read
	// replica; read-only TATP traffic is offloaded to it at a bounded
	// staleness, and the trimmer bounds the primary's retained log under
	// the slowest replica's acked horizon.
	var rsrc *monitor.ReplSource
	var rep *repl.Replica
	var repDB *tatp.DB
	if *replica {
		sh, err := repl.AttachPrimary(doraDB.SM, doraStore, repl.Rule{K: *semiK})
		fatal(err)
		defer sh.Close()
		rep, err = repl.NewReplica(repl.Options{Frames: 1 << 13, RedoWorkers: *redoW, AdaptiveRedo: *adaptW, Tracer: tracer, DDL: func(s *sm.SM) error {
			var derr error
			repDB, derr = tatp.Schema(s, *subs)
			return derr
		}})
		fatal(err)
		fatal(sh.AddReplica("replica-1", repl.LocalLink{R: rep}))
		trim := &sm.Trimmer{SM: doraDB.SM, AckHorizon: sh.AckHorizon}
		trim.Start()
		defer trim.Stop()
		rsrc = &monitor.ReplSource{Shipper: sh, Trimmer: trim, Replica: rep, Primary: doraDB.SM}
		fmt.Println("note: with -replica the engine rows are not a comparison: the replica's offload readers load only DORA's side")
	}

	src := &monitor.Source{
		SM:    doraDB.SM,
		Dora:  de,
		Maint: md,
		Repl:  rsrc,
		Trace: tracer,
		Engines: []monitor.CommitCounter{
			monitor.CounterAdapter{EngineName: "conventional", Committed: &conv.Committed, Aborted: &conv.Aborted},
			monitor.CounterAdapter{EngineName: "dora", Committed: &de.Committed, Aborted: &de.Aborted},
		},
	}
	sv := monitor.NewServer(src, *period)
	addr, err := sv.Listen(*listen)
	fatal(err)
	defer sv.Close()
	fmt.Printf("stats socket: %s (one JSON snapshot per line)\n", addr)
	if *httpOn != "" {
		haddr, closeHTTP, err := monitor.ListenHTTP(src, *httpOn)
		fatal(err)
		defer func() { _ = closeHTTP() }()
		fmt.Printf("http: http://%s/metrics  /snapshot  /debug/pprof/\n", haddr)
	}

	runDur := 100 * 365 * 24 * time.Hour
	if *dur > 0 {
		runDur = *dur
	}
	go func() {
		(&workload.Driver{
			Engine: conv, Mix: convDB.NewMix(tatp.MixOptions{SIDGen: hotCopy(hot, *subs, *hotFrac)}),
			Clients: *clients, Duration: runDur, Seed: 1,
		}).Run()
	}()
	go func() {
		(&workload.Driver{
			Engine: de, Mix: doraDB.NewMix(tatp.MixOptions{SIDGen: hot}),
			Clients: *clients, Duration: runDur, Seed: 2,
		}).Run()
	}()
	if rep != nil {
		// Read offload: the read-only slice of the TATP mix runs against
		// the replica at its hardened commit horizon (bounded staleness).
		go func() {
			(&workload.Driver{
				Engine: repl.ReadEngine{R: rep}, Mix: repDB.ReadOnlyMix(tatp.MixOptions{}),
				Clients: 4, Duration: runDur, Seed: 3,
			}).Run()
		}()
	}

	// Terminal view: refresh a summary line each period.
	stopAt := time.Now().Add(runDur)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	var prev *monitor.Snapshot
	lastT := time.Now()
	tick := time.NewTicker(*period)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("\ninterrupted")
			return
		case now := <-tick.C:
			if now.After(stopAt) {
				return
			}
			snap := src.Sample(prev, now.Sub(lastT))
			prev, lastT = snap, now
			printSnapshot(snap)
		}
	}
}

// hotCopy gives the conventional engine its own identically-moving
// hotspot (the two engines must see the same access distribution).
func hotCopy(h *workload.Hotspot, n int64, frac float64) *workload.Hotspot {
	c := workload.NewHotspot(1, n, frac, n/20)
	go func() {
		for {
			time.Sleep(200 * time.Millisecond)
			c.SetCenter(h.Center())
		}
	}()
	return c
}

func printSnapshot(s *monitor.Snapshot) {
	fmt.Printf("-- %s --\n", s.At.Format("15:04:05"))
	for _, e := range s.Engines {
		fmt.Printf("  %-13s %8.0f tps  committed=%d aborted=%d\n",
			e.Name, e.Throughput, e.Committed, e.Aborted)
	}
	fmt.Printf("  lockmgr CS=%d latch CS=%d contended=%d  buffer hit=%.3f\n",
		s.CS.LockMgr, s.CS.Latch, s.CS.Contended, s.BufferHitRate)
	var owned, latched, stampedPages int64
	for _, hv := range s.Heaps {
		owned += hv.OwnedWrites
		latched += hv.OwnedWritesLatched
		stampedPages += int64(hv.StampedPages)
	}
	if owned > 0 || stampedPages > 0 {
		fmt.Printf("  owned writes=%d latched=%d stamped pages=%d\n",
			owned, latched, stampedPages)
	}
	if pc := s.PageCleaning; pc != nil {
		fmt.Printf("  page cleaning: snap ships=%d cleans=%d stamped evictions=%d dirty writes=%d\n",
			pc.SnapshotShips, pc.SnapshotCleans, pc.StampedEvictions, pc.DirtyWrites)
	}
	if lk := s.Locks; lk != nil {
		fmt.Printf("  locks: acq=%d range=%d esc=%d deesc=%d probes key=%d range=%d\n",
			lk.Acquisitions, lk.RangeLocks, lk.Escalations, lk.Deescalations,
			lk.KeyProbes, lk.RangeProbes)
	}
	for _, rv := range s.Replication {
		switch rv.Role {
		case "primary":
			fmt.Printf("  repl primary: shipped=%d lag=%dB degraded=%d retained=%dB trims=%d\n",
				rv.ShippedLSN, rv.LagBytes, rv.DegradedCommits, rv.RetainedLog, rv.LogTrims)
		case "replica":
			fmt.Printf("  repl replica: applied=%d horizon=%d staleness=%dB trend=%dB/s reads=%d open=%d\n",
				rv.AppliedLSN, rv.CommitHorizon, rv.StalenessBytes, rv.LagTrendBps, rv.ReplicaReads, rv.OpenTxns)
			if rv.Redo != nil {
				fmt.Printf("  redo pool: workers=%d max queue=%d appliers:", rv.Redo.Workers, rv.Redo.MaxQueueDepth)
				for i, a := range rv.Redo.Appliers {
					fmt.Printf(" %d@%d(q%d)", i, a.AppliedLSN, a.QueueDepth)
				}
				fmt.Println()
			}
		}
	}
	if sl := s.StageLatency; sl != nil && sl.Sampled > 0 {
		fmt.Printf("  trace: sampled=%d slow=%d coverage=%.0f%% e2e p50=%dus p99=%dus\n",
			sl.Sampled, sl.Slow, sl.CoveragePct, sl.TotalP50US, sl.TotalP99US)
		fmt.Printf("  stages:")
		for _, sv := range sl.Stages {
			fmt.Printf(" %s=%dus", sv.Stage, sv.P50US)
		}
		fmt.Println()
	}
	byTable := map[string]int{}
	for _, p := range s.Partitions {
		byTable[p.Table]++
	}
	fmt.Printf("  dora partitions:")
	for t, n := range byTable {
		fmt.Printf(" %s=%d", t, n)
	}
	fmt.Println()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "doramon: %v\n", err)
		os.Exit(1)
	}
}
