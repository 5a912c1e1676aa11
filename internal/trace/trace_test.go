package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"dora/internal/metrics"
)

type metricsHistogram = metrics.Histogram

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.SampleHop() || tr.Begin(1) != nil || tr.Snapshot() != nil {
		t.Fatal("nil tracer should be inert")
	}
	tr.RecordSpan(StageExec, 0, time.Millisecond)
	tr.Reset()
	tr.Close()
	var tt *TxnTrace
	tt.Span(StageExec, 0, time.Now(), time.Millisecond)
	tt.SetStart(time.Now())
	tt.Finish(nil) // must not panic
}

func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	defer tr.Close()
	var sampled int
	for i := 0; i < 64; i++ {
		if tt := tr.Begin(uint64(i)); tt != nil {
			sampled++
			tt.Finish(nil)
		}
	}
	if sampled != 16 {
		t.Fatalf("sampled %d of 64 at 1/4", sampled)
	}
}

func TestSpanAggregation(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	defer tr.Close()
	start := time.Now().Add(-10 * time.Millisecond)
	tt := tr.Begin(7)
	if tt == nil {
		t.Fatal("1/1 sampling returned nil")
	}
	tt.SetStart(start)
	tt.Span(StageQueueWait, 0, start, 2*time.Millisecond)
	tt.Span(StageExec, 0, start.Add(2*time.Millisecond), 6*time.Millisecond)
	tt.Finish(nil)
	tr.RecordSpan(StageLogReserve, 1, 500*time.Microsecond)

	s := tr.Snapshot()
	if s.Sampled != 1 || s.Dropped != 0 {
		t.Fatalf("accounting = %+v", s)
	}
	byName := map[string]StageView{}
	for _, v := range s.Stages {
		byName[v.Stage] = v
	}
	if byName["queue_wait"].Count != 1 || byName["exec"].Count != 1 || byName["log_reserve"].Count != 1 {
		t.Fatalf("stage counts = %+v", byName)
	}
	if m := byName["exec"].MeanUS; m < 5000 || m > 7000 {
		t.Fatalf("exec mean = %f", m)
	}
	// 8ms of spans over a ~10ms transaction: coverage near 80%.
	if s.CoveragePct < 60 || s.CoveragePct > 100 {
		t.Fatalf("coverage = %f", s.CoveragePct)
	}
	if s.TotalP50US < 8000 {
		t.Fatalf("total p50 = %d", s.TotalP50US)
	}
}

func TestUnionOverlap(t *testing.T) {
	start := time.Now()
	spans := []ownSpan{
		{stage: StageExec, start: start, dur: 4 * time.Millisecond},
		{stage: StageExec, start: start.Add(2 * time.Millisecond), dur: 4 * time.Millisecond},
		{stage: StageSuspend, start: start.Add(20 * time.Millisecond), dur: 100 * time.Millisecond}, // clipped
	}
	got := unionNS(spans, start, 10*time.Millisecond)
	if want := int64(6 * time.Millisecond); got != want {
		t.Fatalf("union = %d, want %d", got, want)
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{SampleEvery: 1, SlowThreshold: time.Microsecond, SlowWriter: &buf})
	defer tr.Close()
	tt := tr.Begin(42)
	tt.SetStart(time.Now().Add(-5 * time.Millisecond))
	tt.Span(StageExec, 3, time.Now().Add(-4*time.Millisecond), 3*time.Millisecond)
	tt.Finish(nil)
	line := strings.TrimSpace(buf.String())
	var got slowLine
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("slow line %q: %v", line, err)
	}
	if got.Txn != 42 || got.TotalUS < 4000 || len(got.Spans) != 1 || got.Spans[0].Stage != "exec" {
		t.Fatalf("slow line = %+v", got)
	}
	if s := tr.Snapshot(); s.Slow != 1 {
		t.Fatalf("slow count = %d", s.Slow)
	}
}

func TestRingFullDrops(t *testing.T) {
	r := newRing(2) // 4 slots
	for i := 0; i < 4; i++ {
		if !r.push(spanRec{txnID: uint64(i)}) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if r.push(spanRec{}) {
		t.Fatal("push succeeded on full ring")
	}
	var rec spanRec
	for i := 0; i < 4; i++ {
		if !r.pop(&rec) || rec.txnID != uint64(i) {
			t.Fatalf("pop %d = %+v", i, rec)
		}
	}
	if r.pop(&rec) {
		t.Fatal("pop succeeded on empty ring")
	}
	// Slots recycle.
	if !r.push(spanRec{txnID: 99}) || !r.pop(&rec) || rec.txnID != 99 {
		t.Fatal("ring does not recycle")
	}
}

// TestRingStorm races many concurrent span writers against the
// aggregator (run under -race in CI). Every record must be either
// aggregated or counted as dropped — none lost, none torn.
func TestRingStorm(t *testing.T) {
	tr := New(Config{SampleEvery: 1, RingBits: 8, Shards: 4, DrainEvery: time.Millisecond})
	const writers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.RecordSpan(Stage(i%int(stageCount)), w, time.Duration(i)*time.Microsecond)
				if i%64 == 0 {
					tt := tr.Begin(uint64(w*per + i))
					tt.Span(StageExec, w, time.Now(), time.Microsecond)
					tt.Finish(nil)
				}
			}
		}(w)
	}
	// Snapshot concurrently with the storm: forces drains that race the
	// producers.
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
	tr.Close()

	s := tr.Snapshot()
	var agg int64
	tr.ForEachStage(func(_ string, h *metricsHistogram) { agg += h.Count() })
	// Each Begin produces 1 exec span + 1 total record; any of the
	// records (including totals) may be dropped when rings fill.
	want := int64(writers*per) + 2*s.Sampled
	if agg+s.Dropped != want {
		t.Fatalf("aggregated %d + dropped %d != produced %d", agg, s.Dropped, want)
	}
}

// BenchmarkRingPush: one span-record push per op into a default-sized
// ring, drained every 64 pushes so it never fills (a full ring drops
// the record, which would time the refusal instead).
func BenchmarkRingPush(b *testing.B) {
	r := newRing(12)
	var rec spanRec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.push(spanRec{txnID: uint64(i), durNS: int64(i), stage: StageExec}) {
			b.Fatal("ring full")
		}
		if i%64 == 63 {
			for r.pop(&rec) {
			}
		}
	}
}
