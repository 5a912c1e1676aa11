package exp

import (
	"fmt"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/engine/conventional"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/workload"
	"dora/internal/workload/tatp"
	"dora/internal/workload/tpcb"
	"dora/internal/workload/tpcc"
)

// E1AccessPatterns reproduces the demo's "Access Patterns" panel
// (Figure 1): per-worker record-access traces on TATP for both engines,
// summarized by the predictability statistics — conventional workers
// wander the whole subscriber key space while each DORA worker stays
// inside its partition.
func E1AccessPatterns(c Config) (*Table, error) {
	c = c.fill()
	tb := &Table{
		Title:  "E1  access patterns (demo Fig. 1): subscriber-table traces, TATP",
		Header: []string{"engine", "workers", "accesses", "mean run len", "key spread"},
		Caption: "key spread = mean fraction of the key space one worker touches\n" +
			"(1/partitions for DORA, →1 for conventional); run len = consecutive\n" +
			"accesses by the same worker.",
	}
	for _, which := range []string{"conventional", "dora"} {
		tracer := metrics.NewAccessTracer(200000)
		cs := &metrics.CriticalSectionStats{}
		s, err := sm.Open(sm.Options{Frames: 1 << 14, CS: cs, Tracer: tracer})
		if err != nil {
			return nil, err
		}
		defer s.Close()
		db, err := tatp.Load(s, c.Subscribers)
		if err != nil {
			return nil, err
		}
		var e engine.Engine
		if which == "dora" {
			e = dora.New(s, dora.Config{PartitionsPerTable: c.Partitions, Domains: db.Domains()})
		} else {
			e = conventional.New(s)
		}
		tracer.Reset() // discard the load phase
		clients := c.Clients
		if clients < 8 {
			clients = 8
		}
		dr := workload.Driver{
			Engine: e, Mix: db.NewMix(tatp.MixOptions{}),
			Clients: clients, Duration: c.Duration, Seed: 11,
		}
		dr.Run()
		// Keep only worker-thread accesses: DORA's coordinator session
		// (worker -1) performs resolver probes that are not part of the
		// per-micro-engine access pattern the demo panel shows.
		trace := tracer.Trace()
		kept := trace[:0]
		for _, a := range trace {
			if a.Worker >= 0 {
				kept = append(kept, a)
			}
		}
		st := metrics.Predictability(kept, int(db.Subscriber.ID))
		tb.Rows = append(tb.Rows, []string{
			which, d2(int64(st.Workers)), d2(int64(st.Accesses)),
			f2(st.MeanRunLength), f2(st.KeySpread),
		})
		_ = e.Close()
	}
	return tb, nil
}

// E2VaryingLoad reproduces "Performance Under Varying Load": TATP
// throughput as the client population sweeps from idle through saturated
// to oversubscribed, for both engines.
func E2VaryingLoad(c Config, clientSteps []int) (*Table, error) {
	c = c.fill()
	if len(clientSteps) == 0 {
		// Idle (1) through saturated to heavily oversubscribed: the demo
		// shows DORA's queues acting as admission control out here.
		clientSteps = []int{1, 4, 16, 64, 256}
	}
	tb := &Table{
		Title:  "E2  throughput vs clients (demo: idle -> saturated -> oversubscribed), TATP",
		Header: []string{"clients", "conventional tps", "dora tps", "dora/conv"},
	}
	for _, n := range clientSteps {
		if n < 1 {
			n = 1
		}
		tps := map[string]float64{}
		for _, which := range []string{"conventional", "dora"} {
			db, e, _, closeRig, err := tatpRig(c, which)
			if err != nil {
				return nil, err
			}
			dr := workload.Driver{
				Engine: e, Mix: db.NewMix(tatp.MixOptions{}),
				Clients: n, Duration: c.Duration, Seed: 22,
			}
			res := dr.Run()
			tps[which] = res.Throughput
			closeRig()
		}
		ratio := 0.0
		if tps["conventional"] > 0 {
			ratio = tps["dora"] / tps["conventional"]
		}
		tb.Rows = append(tb.Rows, []string{
			d2(int64(n)), f1(tps["conventional"]), f1(tps["dora"]), f2(ratio),
		})
	}
	return tb, nil
}

// E4CriticalSections reproduces the paper's core claim (§1): the number
// of lock-manager critical sections entered per committed transaction.
// DORA bypasses the centralized lock manager entirely, so its lock-
// manager row is zero; latching and log serialization remain in both.
func E4CriticalSections(c Config) (*Table, error) {
	c = c.fill()
	tb := &Table{
		Title: "E4  critical sections per committed transaction, TATP mix",
		Header: []string{"engine", "lockmgr/txn", "latch/txn", "log/txn",
			"contended/txn", "total/txn"},
	}
	for _, which := range []string{"conventional", "dora"} {
		db, e, cs, closeRig, err := tatpRig(c, which)
		if err != nil {
			return nil, err
		}
		cs.Reset() // exclude the load phase
		dr := workload.Driver{
			Engine: e, Mix: db.NewMix(tatp.MixOptions{}),
			Clients: c.Clients, Duration: c.Duration, Seed: 44,
		}
		res := dr.Run()
		snap := cs.Snapshot()
		n := float64(res.Committed)
		if n == 0 {
			n = 1
		}
		tb.Rows = append(tb.Rows, []string{
			which,
			f2(float64(snap.LockMgr) / n),
			f2(float64(snap.Latch) / n),
			f2(float64(snap.Log) / n),
			f2(float64(snap.Contended) / n),
			f2(float64(snap.Total()) / n),
		})
		closeRig()
	}
	return tb, nil
}

// E5PeakThroughput reproduces the headline comparison: peak throughput
// of both engines on TATP, TPC-C and TPC-B at saturation. Each engine's
// throughput sits next to its failed transactions (abort: retries
// exhausted) and retried attempts, so a stalled cell shows as one.
func E5PeakThroughput(c Config) (*Table, error) {
	c = c.fill()
	tb := &Table{
		Title: "E5  peak throughput at saturation (tps)",
		Header: []string{"workload", "conventional", "conv abort", "conv retry",
			"dora", "dora abort", "dora retry", "dora/conv"},
		Caption: "abort = transactions that failed after the driver's retries;\n" +
			"retry = aborted attempts the driver retried.",
	}
	type bench struct {
		name string
		run  func(which string) (workload.Result, error)
	}
	benches := []bench{
		{"TATP", func(which string) (workload.Result, error) {
			db, e, _, closeRig, err := tatpRig(c, which)
			if err != nil {
				return workload.Result{}, err
			}
			defer closeRig()
			return (&workload.Driver{
				Engine: e, Mix: db.NewMix(tatp.MixOptions{}),
				Clients: c.Clients, Duration: c.Duration, Seed: 55,
			}).Run(), nil
		}},
		{"TATP read-only", func(which string) (workload.Result, error) {
			db, e, _, closeRig, err := tatpRig(c, which)
			if err != nil {
				return workload.Result{}, err
			}
			defer closeRig()
			return (&workload.Driver{
				Engine: e, Mix: db.ReadOnlyMix(tatp.MixOptions{}),
				Clients: c.Clients, Duration: c.Duration, Seed: 56,
			}).Run(), nil
		}},
		{"TPC-C", func(which string) (workload.Result, error) {
			cs := &metrics.CriticalSectionStats{}
			s, err := sm.Open(sm.Options{Frames: 1 << 14, CS: cs})
			if err != nil {
				return workload.Result{}, err
			}
			defer s.Close()
			db, err := tpcc.Load(s, tpcc.DefaultScale(c.Warehouses))
			if err != nil {
				return workload.Result{}, err
			}
			var e engine.Engine
			if which == "dora" {
				e = dora.New(s, dora.Config{PartitionsPerTable: c.Partitions, Domains: db.Domains()})
			} else {
				e = conventional.New(s)
			}
			defer e.Close()
			return (&workload.Driver{
				Engine: e, Mix: db.NewMix(tpcc.MixOptions{}),
				Clients: c.Clients, Duration: c.Duration, Seed: 57,
			}).Run(), nil
		}},
		{"TPC-B", func(which string) (workload.Result, error) {
			cs := &metrics.CriticalSectionStats{}
			s, err := sm.Open(sm.Options{Frames: 1 << 13, CS: cs})
			if err != nil {
				return workload.Result{}, err
			}
			defer s.Close()
			db, err := tpcb.Load(s, c.Branches, 1000)
			if err != nil {
				return workload.Result{}, err
			}
			var e engine.Engine
			if which == "dora" {
				e = dora.New(s, dora.Config{PartitionsPerTable: c.Partitions, Domains: db.Domains()})
			} else {
				e = conventional.New(s)
			}
			defer e.Close()
			return (&workload.Driver{
				Engine: e, Mix: db.NewMix(nil),
				Clients: c.Clients, Duration: c.Duration, Seed: 58,
			}).Run(), nil
		}},
	}
	for _, b := range benches {
		conv, err := b.run("conventional")
		if err != nil {
			return nil, fmt.Errorf("%s conventional: %w", b.name, err)
		}
		dra, err := b.run("dora")
		if err != nil {
			return nil, fmt.Errorf("%s dora: %w", b.name, err)
		}
		ratio := 0.0
		if conv.Throughput > 0 {
			ratio = dra.Throughput / conv.Throughput
		}
		tb.Rows = append(tb.Rows, []string{b.name,
			f1(conv.Throughput), d2(conv.Aborted), d2(conv.Retries),
			f1(dra.Throughput), d2(dra.Aborted), d2(dra.Retries), f2(ratio)})
	}
	return tb, nil
}
