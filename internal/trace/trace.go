// Package trace is the end-to-end transaction tracer: an always-on,
// sampled span recorder that follows one transaction from admission
// through partition-inbox queue wait, action execution, cross-partition
// ship hops, and the commit pipeline (log append, group-flush wait, ELR
// lock release, semi-sync ack wait) — and, on replicas, delivery and
// redo-apply lag. One in SampleEvery transactions is traced; spans land
// in bounded lock-free ring buffers (no shared mutex on the hot path) and
// a background aggregator folds them into per-stage metrics.Histograms.
// Traces whose end-to-end time exceeds SlowThreshold are additionally
// emitted as JSON span trees on SlowWriter. Snapshot exports the
// aggregate as a StageLatency view for the monitor, doramon, and the
// Prometheus endpoint.
package trace

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/metrics"
)

// stageTotal is the in-ring marker for a whole-transaction record.
const stageTotal = stageCount

// Config tunes a Tracer. The zero value gives 1/64 sampling, 4096-slot
// rings, one ring per logical CPU-ish shard, no slow log.
type Config struct {
	// SampleEvery traces 1 in N transactions (default 64; 1 traces all).
	SampleEvery int
	// RingBits is log2 of each ring's slot count (default 12).
	RingBits int
	// Shards is the ring count; workers hash into them (default 8).
	Shards int
	// SlowThreshold, when > 0, emits a JSON span tree for any traced
	// transaction whose end-to-end time meets or exceeds it.
	SlowThreshold time.Duration
	// SlowWriter receives slow-transaction JSON lines (default stderr).
	SlowWriter io.Writer
	// DrainEvery is the aggregator's drain period (default 10ms).
	DrainEvery time.Duration
}

// Tracer samples transactions and aggregates their spans. All methods are
// safe on a nil *Tracer (they no-op), so call sites need no guards.
type Tracer struct {
	cfg   Config
	epoch time.Time
	rings []*ring

	seq     atomic.Uint64 // admission counter for deterministic 1/N
	sampled atomic.Int64
	dropped atomic.Int64
	slow    atomic.Int64

	coveredNS atomic.Int64 // union of span intervals, summed over traces
	totalNS   atomic.Int64 // end-to-end time, summed over traces

	drainMu sync.Mutex // serializes ring consumption
	stages  [stageCount]metrics.Histogram
	total   metrics.Histogram

	slowMu sync.Mutex // serializes slow-log writes

	stop chan struct{}
	done chan struct{}
}

// New starts a tracer (including its aggregator goroutine). Close it when
// done. New(Config{}) gives the defaults; a nil *Tracer disables tracing
// with zero overhead beyond a nil check.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	if cfg.RingBits <= 0 {
		cfg.RingBits = 12
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.SlowWriter == nil {
		cfg.SlowWriter = os.Stderr
	}
	if cfg.DrainEvery <= 0 {
		cfg.DrainEvery = 10 * time.Millisecond
	}
	t := &Tracer{
		cfg:   cfg,
		epoch: time.Now(),
		rings: make([]*ring, cfg.Shards),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range t.rings {
		t.rings[i] = newRing(cfg.RingBits)
	}
	go t.aggregate()
	return t
}

// Close stops the aggregator after a final drain.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	close(t.stop)
	<-t.done
}

// Enabled reports whether the tracer is live.
func (t *Tracer) Enabled() bool { return t != nil }

// Begin starts a trace for txnID if it falls in the sample; it returns
// nil (which every TxnTrace method tolerates) otherwise.
func (t *Tracer) Begin(txnID uint64) *TxnTrace {
	if t == nil {
		return nil
	}
	if t.seq.Add(1)%uint64(t.cfg.SampleEvery) != 0 {
		return nil
	}
	t.sampled.Add(1)
	return &TxnTrace{tr: t, txnID: txnID, start: time.Now()}
}

// SampleHop makes an independent 1/SampleEvery decision for subsystems
// that see work items, not transactions (clog groups, ship hops, replica
// extents). Cheap: one per-P random draw, no shared state.
func (t *Tracer) SampleHop() bool {
	if t == nil {
		return false
	}
	return rand.Uint64N(uint64(t.cfg.SampleEvery)) == 0
}

// RecordSpan records one engine-scoped span ending now.
func (t *Tracer) RecordSpan(stage Stage, worker int, d time.Duration) {
	if t == nil {
		return
	}
	t.pushRec(spanRec{
		startNS: time.Since(t.epoch).Nanoseconds() - d.Nanoseconds(),
		durNS:   d.Nanoseconds(),
		stage:   stage,
		worker:  int32(worker),
	})
}

func (t *Tracer) pushRec(rec spanRec) {
	var shard int
	if rec.worker >= 0 {
		shard = int(rec.worker) % len(t.rings)
	} else {
		shard = int(rand.Uint32()) % len(t.rings)
	}
	if !t.rings[shard].push(rec) {
		t.dropped.Add(1)
	}
}

// aggregate is the drain loop: it folds ring records into the per-stage
// histograms every DrainEvery until Close.
func (t *Tracer) aggregate() {
	defer close(t.done)
	tick := time.NewTicker(t.cfg.DrainEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.drain()
		case <-t.stop:
			t.drain()
			return
		}
	}
}

// drain consumes every ring into the histograms. Serialized by drainMu so
// the ticker loop and Snapshot-forced drains never race the single-
// consumer rings.
func (t *Tracer) drain() {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	var rec spanRec
	for _, r := range t.rings {
		for r.pop(&rec) {
			d := time.Duration(rec.durNS)
			if rec.stage == stageTotal {
				t.total.Observe(d)
			} else if int(rec.stage) < len(t.stages) {
				t.stages[rec.stage].Observe(d)
			}
		}
	}
}

// Reset drains pending records and clears every aggregate (histograms,
// counters, coverage), so a measurement window starts empty.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.drain()
	t.drainMu.Lock()
	for i := range t.stages {
		t.stages[i].Reset()
	}
	t.total.Reset()
	t.drainMu.Unlock()
	t.sampled.Store(0)
	t.dropped.Store(0)
	t.slow.Store(0)
	t.coveredNS.Store(0)
	t.totalNS.Store(0)
}

// ForEachStage calls fn for every stage histogram with at least one
// observation, plus the end-to-end histogram under the name "total".
// Pending ring records are drained first.
func (t *Tracer) ForEachStage(fn func(name string, h *metrics.Histogram)) {
	if t == nil {
		return
	}
	t.drain()
	for i := range t.stages {
		if t.stages[i].Count() > 0 {
			fn(Stage(i).String(), &t.stages[i])
		}
	}
	if t.total.Count() > 0 {
		fn("total", &t.total)
	}
}

// StageView is one stage's aggregate in a StageLatency snapshot.
type StageView struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  int64   `json:"p50_us"`
	P95US  int64   `json:"p95_us"`
	P99US  int64   `json:"p99_us"`
	MaxUS  int64   `json:"max_us"`
}

// StageLatency is the tracer's aggregate view: per-stage latency
// distributions plus trace accounting. CoveragePct is how much of the
// traced transactions' end-to-end time the recorded spans explain
// (interval union, so overlapping parallel actions don't double-count).
type StageLatency struct {
	Sampled     int64       `json:"sampled"`
	Dropped     int64       `json:"dropped"`
	Slow        int64       `json:"slow"`
	CoveragePct float64     `json:"coverage_pct"`
	TotalP50US  int64       `json:"total_p50_us"`
	TotalP99US  int64       `json:"total_p99_us"`
	Stages      []StageView `json:"stages"`
}

// Snapshot drains pending records and returns the aggregate view, or nil
// on a nil tracer.
func (t *Tracer) Snapshot() *StageLatency {
	if t == nil {
		return nil
	}
	t.drain()
	s := &StageLatency{
		Sampled:    t.sampled.Load(),
		Dropped:    t.dropped.Load(),
		Slow:       t.slow.Load(),
		TotalP50US: t.total.Quantile(0.5),
		TotalP99US: t.total.Quantile(0.99),
	}
	if tot := t.totalNS.Load(); tot > 0 {
		s.CoveragePct = 100 * float64(t.coveredNS.Load()) / float64(tot)
	}
	for i := range t.stages {
		h := &t.stages[i]
		n := h.Count()
		if n == 0 {
			continue
		}
		s.Stages = append(s.Stages, StageView{
			Stage:  Stage(i).String(),
			Count:  n,
			MeanUS: h.MeanMicros(),
			P50US:  h.Quantile(0.5),
			P95US:  h.Quantile(0.95),
			P99US:  h.Quantile(0.99),
			MaxUS:  h.MaxMicros(),
		})
	}
	return s
}

// TxnTrace collects one sampled transaction's spans. Methods are safe on
// nil receivers, so untraced transactions cost a single nil check. Span
// may be called from any worker touched by the transaction; the small
// mutex only ever sees contention when two partitions finish the same
// sampled transaction's actions simultaneously.
type TxnTrace struct {
	tr    *Tracer
	txnID uint64
	start time.Time

	mu    sync.Mutex
	spans []ownSpan
}

type ownSpan struct {
	stage  Stage
	worker int32
	start  time.Time
	dur    time.Duration
}

// Span records one stage interval.
func (tt *TxnTrace) Span(stage Stage, worker int, start time.Time, d time.Duration) {
	if tt == nil {
		return
	}
	tt.mu.Lock()
	tt.spans = append(tt.spans, ownSpan{stage: stage, worker: int32(worker), start: start, dur: d})
	tt.mu.Unlock()
}

// SetStart rewinds the trace's epoch (admission wait starts before Begin
// can run, because the transaction ID doesn't exist yet).
func (tt *TxnTrace) SetStart(t0 time.Time) {
	if tt == nil {
		return
	}
	tt.start = t0
}

// Finish ends the trace: it computes the end-to-end time and the span
// union coverage, pushes every span plus the total into the rings, and
// emits the slow-transaction JSON line when past the threshold.
func (tt *TxnTrace) Finish(err error) {
	if tt == nil {
		return
	}
	total := time.Since(tt.start)
	tr := tt.tr
	tt.mu.Lock()
	spans := tt.spans
	tt.spans = nil
	tt.mu.Unlock()

	for _, s := range spans {
		tr.pushRec(spanRec{
			txnID:   tt.txnID,
			startNS: s.start.Sub(tr.epoch).Nanoseconds(),
			durNS:   s.dur.Nanoseconds(),
			stage:   s.stage,
			worker:  s.worker,
		})
	}
	tr.pushRec(spanRec{
		txnID:   tt.txnID,
		startNS: tt.start.Sub(tr.epoch).Nanoseconds(),
		durNS:   total.Nanoseconds(),
		stage:   stageTotal,
		worker:  -1,
	})
	tr.coveredNS.Add(unionNS(spans, tt.start, total))
	tr.totalNS.Add(total.Nanoseconds())

	if tr.cfg.SlowThreshold > 0 && total >= tr.cfg.SlowThreshold {
		tr.slow.Add(1)
		tr.emitSlow(tt, spans, total, err)
	}
}

// unionNS returns the length of the union of the span intervals clipped
// to [start, start+total] — overlapping parallel actions count once.
func unionNS(spans []ownSpan, start time.Time, total time.Duration) int64 {
	if len(spans) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	hi := total.Nanoseconds()
	for _, s := range spans {
		a := s.start.Sub(start).Nanoseconds()
		b := a + s.dur.Nanoseconds()
		if a < 0 {
			a = 0
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for _, v := range ivs {
		if v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// slowSpan is one span in the slow-transaction JSON line.
type slowSpan struct {
	Stage   string `json:"stage"`
	Worker  int32  `json:"worker"`
	StartUS int64  `json:"start_us"` // offset from the transaction's start
	DurUS   int64  `json:"dur_us"`
}

// slowLine is the slow-transaction log format: one JSON object per line.
type slowLine struct {
	Txn     uint64     `json:"txn"`
	TotalUS int64      `json:"total_us"`
	Err     string     `json:"err,omitempty"`
	Spans   []slowSpan `json:"spans"`
}

func (tr *Tracer) emitSlow(tt *TxnTrace, spans []ownSpan, total time.Duration, err error) {
	line := slowLine{Txn: tt.txnID, TotalUS: total.Microseconds()}
	if err != nil {
		line.Err = err.Error()
	}
	for _, s := range spans {
		line.Spans = append(line.Spans, slowSpan{
			Stage:   s.stage.String(),
			Worker:  s.worker,
			StartUS: s.start.Sub(tt.start).Microseconds(),
			DurUS:   s.dur.Microseconds(),
		})
	}
	sort.Slice(line.Spans, func(i, j int) bool { return line.Spans[i].StartUS < line.Spans[j].StartUS })
	b, jerr := json.Marshal(line)
	if jerr != nil {
		return
	}
	b = append(b, '\n')
	tr.slowMu.Lock()
	_, _ = tr.cfg.SlowWriter.Write(b)
	tr.slowMu.Unlock()
}
