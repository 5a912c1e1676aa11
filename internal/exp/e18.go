package exp

import (
	"fmt"
	"sort"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/trace"
	"dora/internal/workload"
	"dora/internal/workload/tatp"
)

// E18LatencyAttribution decomposes end-to-end transaction latency into
// the tracer's pipeline stages under rising open-loop load. Two
// questions: (1) what does always-on 1/64 sampling cost — measured as
// closed-loop throughput with the tracer off vs on, same rig, same mix
// (the budget is <2%); (2) where does the time go as offered load
// crosses the knee — open-loop rows at ~0.5x/1x/1.5x of the measured
// closed-loop capacity, each with the traced end-to-end quantiles, span
// coverage, and a per-stage breakdown (per-transaction attribution:
// stage time summed over traced transactions divided by the sample
// count). Below the knee the breakdown is dominated by exec and the
// commit pipeline; past it, queue_wait grows while exec stays flat —
// queueing, not work, is where overload latency lives.
//
// The built-in consistency check: over the txn-scoped stages (the
// engine-scoped SampleHop stages — ship, kont, log reserve/fill,
// replica delivery/apply — are sampled per work item, not per
// transaction, so they are excluded) the attribution sum should land
// within ~10% of the traced end-to-end p50 when the stages are
// sequential, which the aligned TATP mix's single-action transactions
// are. The stage-sum/p50 column reports it per row; span coverage is
// the interval-union version of the same question (overlap-safe), so
// the two together tell apart "missing instrumentation" (low coverage)
// from "overlapping stages" (high sum, good coverage). At quick scale
// the sample is small and the check is reported, not enforced.
func E18LatencyAttribution(c Config) (*Table, error) {
	c = c.fill()
	tb := &Table{
		Title: "E18  latency attribution: per-stage decomposition under open-loop load, TATP",
		Header: []string{"phase", "offered tx/s", "tps", "p50 ms", "p99 ms",
			"sampled", "coverage %", "stage-sum/p50 %"},
		Caption: "Stage rows attribute microseconds per traced transaction (stage time /\n" +
			"sampled count); their sum over txn-scoped stages, divided by the traced\n" +
			"end-to-end p50, is the stage-sum/p50 column of the parent row (~100% =\n" +
			"the decomposition explains the median transaction). coverage % is the\n" +
			"interval-union share of traced end-to-end time the spans explain.\n" +
			"tracer off/on rows: closed-loop throughput with tracing disabled vs 1/64\n" +
			"sampling — the overhead budget is <2%.",
	}

	// Overhead: two otherwise-identical rigs, tracer off vs 1/64, measured
	// in ALTERNATING closed-loop windows with the median taken per rig.
	// Sequential measurement would fold machine drift (frequency scaling,
	// co-tenant noise — easily 10x the effect under study) into the
	// comparison; alternation puts both rigs through the same drift.
	tr := trace.New(trace.Config{SampleEvery: 64})
	defer tr.Close()
	offDB, offEng, closeOff, err := tatpRigE18(c, nil)
	if err != nil {
		return nil, fmt.Errorf("e18 tracer-off: %w", err)
	}
	defer closeOff()
	db, eng, closeRig, err := tatpRigE18(c, tr)
	if err != nil {
		return nil, fmt.Errorf("e18 tracer-on: %w", err)
	}
	defer closeRig()
	mix := db.NewMix(tatp.MixOptions{})
	offDr := workload.Driver{Engine: offEng, Mix: offDB.NewMix(tatp.MixOptions{}),
		Clients: c.Clients, Duration: c.Duration, Seed: 1818}
	onDr := workload.Driver{Engine: eng, Mix: mix, Clients: c.Clients, Duration: c.Duration, Seed: 1818}
	offDr.Run() // warm-up, discarded: a fresh rig's first window is
	onDr.Run()  // buffer-pool fill and worker spin-up, not steady state
	var offTPSs, onTPSs []float64
	for i := 0; i < 3; i++ {
		offTPSs = append(offTPSs, offDr.Run().Throughput)
		onTPSs = append(onTPSs, onDr.Run().Throughput)
	}
	offTPS, onTPS := median(offTPSs), median(onTPSs)
	overhead := 0.0
	if offTPS > 0 {
		overhead = 100 * (1 - onTPS/offTPS)
	}
	tb.Rows = append(tb.Rows, []string{"closed, tracer off", "-", f1(offTPS), "-", "-", "-", "-", "-"})
	tb.Rows = append(tb.Rows, []string{"closed, tracer 1/64", "-", f1(onTPS), "-", "-", "-", "-",
		fmt.Sprintf("overhead %+.1f%%", overhead)})

	// Open-loop rows at rising offered load. Reset between rows so each
	// decomposition reflects one operating point only.
	capacity := onTPS
	if capacity < 200 {
		capacity = 200
	}
	for _, frac := range []float64{0.5, 1.0, 1.5} {
		rate := frac * capacity
		if c.ArrivalRate > 0 {
			rate = frac * c.ArrivalRate
		}
		inflight := c.MaxInFlight
		if inflight <= 0 {
			inflight = 256
		}
		tr.Reset()
		ol := workload.OpenLoop{
			Engine: eng.(*dora.Dora), Mix: mix,
			Rate: rate, MaxInFlight: inflight, Duration: c.Duration, Seed: 1818,
		}
		ores := ol.Run()
		sl := tr.Snapshot()
		phase := fmt.Sprintf("open %.1fx", frac)
		sumPct := "-"
		if pct, ok := e18StageSumPct(sl); ok {
			sumPct = f1(pct)
		}
		tb.Rows = append(tb.Rows, []string{phase, f1(rate), f1(ores.Throughput),
			fmt.Sprintf("%.2f", float64(ores.P50US)/1000),
			fmt.Sprintf("%.2f", float64(ores.P99US)/1000),
			d2(sl.Sampled), f1(sl.CoveragePct), sumPct})
		for _, sv := range sl.Stages {
			attrib := sv.MeanUS * float64(sv.Count) / float64(max(sl.Sampled, 1))
			tb.Rows = append(tb.Rows, []string{"  " + sv.Stage, "-", "-", "-", "-",
				d2(sv.Count), fmt.Sprintf("%.0f us/txn", attrib),
				fmt.Sprintf("p50 %d p99 %d us", sv.P50US, sv.P99US)})
		}
	}
	return tb, nil
}

// e18TxnScoped marks the stages recorded against a sampled transaction
// (as opposed to per-work-item SampleHop stages): only these sum to an
// end-to-end decomposition.
var e18TxnScoped = map[string]bool{
	trace.StageAdmission.String():   true,
	trace.StageQueueWait.String():   true,
	trace.StageExec.String():        true,
	trace.StageSuspend.String():     true,
	trace.StageLogAppend.String():   true,
	trace.StageFlushWait.String():   true,
	trace.StageLockRelease.String(): true,
	trace.StageAckWait.String():     true,
}

// e18StageSumPct sums per-transaction stage attribution over the
// txn-scoped stages and reports it as a percentage of the traced
// end-to-end p50.
func e18StageSumPct(sl *trace.StageLatency) (float64, bool) {
	if sl == nil || sl.Sampled == 0 || sl.TotalP50US == 0 {
		return 0, false
	}
	var sumUS float64
	for _, sv := range sl.Stages {
		if e18TxnScoped[sv.Stage] {
			sumUS += sv.MeanUS * float64(sv.Count) / float64(sl.Sampled)
		}
	}
	return 100 * sumUS / float64(sl.TotalP50US), true
}

// median of a small sample (sorted in place).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// tatpRigE18 is tatpRig with the tracer threaded through both layers:
// sm.Options.Spans gives the commit pipeline's stages to the same tracer
// the DORA engine records admission/queue/exec/ship spans into.
func tatpRigE18(c Config, tr *trace.Tracer) (*tatp.DB, engine.Engine, func(), error) {
	cs := &metrics.CriticalSectionStats{}
	s, err := sm.Open(sm.Options{Frames: 1 << 14, CS: cs, Spans: tr})
	if err != nil {
		return nil, nil, nil, err
	}
	db, err := tatp.Load(s, c.Subscribers)
	if err != nil {
		_ = s.Close()
		return nil, nil, nil, err
	}
	e := dora.New(s, dora.Config{
		PartitionsPerTable: c.Partitions,
		Domains:            db.Domains(),
		Tracer:             tr,
	})
	return db, e, func() { _ = e.Close(); _ = s.Close() }, nil
}
