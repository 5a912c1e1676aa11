package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d", c.Load())
	}
	if c.Reset() != 8000 || c.Load() != 0 {
		t.Fatal("Reset broken")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Add(-2)
	if g.Load() != 40 {
		t.Fatalf("gauge = %d", g.Load())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.MeanMicros() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(10 * time.Millisecond)
	if h.Count() != 101 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.MeanMicros(); m < 100 || m > 1000 {
		t.Fatalf("mean = %f", m)
	}
	if h.Quantile(0.5) > 256 {
		t.Fatalf("p50 = %d", h.Quantile(0.5))
	}
	if h.Quantile(1.0) < 1000 {
		t.Fatalf("p100 = %d", h.Quantile(1.0))
	}
	if h.MaxMicros() != 10000 {
		t.Fatalf("max = %d", h.MaxMicros())
	}
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("Reset broken")
	}
}

func TestHistogramExactPowerOfTwo(t *testing.T) {
	// An observation of exactly 2^i µs must be reported as bounded by
	// 2^i, not 2^(i+1) (the bucket edges are inclusive upper bounds).
	for _, us := range []int64{1, 2, 4, 256, 1024} {
		var h Histogram
		h.Observe(time.Duration(us) * time.Microsecond)
		if got := h.Quantile(1.0); got != us {
			t.Fatalf("Quantile(1.0) after Observe(%dµs) = %d, want %d", us, got, us)
		}
	}
	// Just past the edge spills into the next bucket.
	var h Histogram
	h.Observe(257 * time.Microsecond)
	if got := h.Quantile(1.0); got != 512 {
		t.Fatalf("Quantile(1.0) after Observe(257µs) = %d, want 512", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(time.Duration(1+i) * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != writers*per {
		t.Fatalf("count = %d, want %d", h.Count(), writers*per)
	}
	wantSum := int64(0)
	for i := 0; i < writers; i++ {
		wantSum += int64(1+i) * per
	}
	if h.SumMicros() != wantSum {
		t.Fatalf("sum = %d, want %d", h.SumMicros(), wantSum)
	}
	if h.MaxMicros() != writers {
		t.Fatalf("max = %d, want %d", h.MaxMicros(), writers)
	}
	var total int64
	for _, b := range h.Buckets() {
		total += b
	}
	if total != writers*per {
		t.Fatalf("bucket total = %d, want %d", total, writers*per)
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Mark(10)
	if m.Total() != 10 {
		t.Fatalf("total = %d", m.Total())
	}
	if m.Rate() <= 0 {
		t.Fatal("rate should be positive")
	}
	m.Window()
	m.Mark(5)
	time.Sleep(10 * time.Millisecond)
	w := m.Window()
	if w <= 0 {
		t.Fatalf("window rate = %f", w)
	}
	m.Restart()
	if m.Total() != 0 {
		t.Fatal("Restart broken")
	}
}

func TestCriticalSectionSnapshot(t *testing.T) {
	cs := &CriticalSectionStats{}
	cs.LockMgr.Add(3)
	cs.Latch.Add(2)
	cs.Log.Inc()
	cs.Contended.Inc()
	snap := cs.Snapshot()
	if snap.LockMgr != 3 || snap.Latch != 2 || snap.Log != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Total() != 6 {
		t.Fatalf("total = %d", snap.Total())
	}
	cs.Reset()
	if cs.Snapshot().Total() != 0 {
		t.Fatal("Reset broken")
	}
}

func TestAccessTracerBounds(t *testing.T) {
	tr := NewAccessTracer(3)
	for i := 0; i < 10; i++ {
		tr.Record(Access{Worker: i, Table: 1, Key: int64(i)})
	}
	if got := len(tr.Trace()); got != 3 {
		t.Fatalf("trace len = %d, want capped 3", got)
	}
	tr.Reset()
	if len(tr.Trace()) != 0 {
		t.Fatal("Reset broken")
	}
	var nilTr *AccessTracer
	nilTr.Record(Access{}) // must not panic
	if nilTr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
}

func TestPredictability(t *testing.T) {
	// Worker 0 sweeps keys 1..10 (long run, narrow-ish), worker 1 jumps
	// around the whole space.
	var trace []Access
	for k := int64(1); k <= 10; k++ {
		trace = append(trace, Access{Worker: 0, Table: 1, Key: k})
	}
	for _, k := range []int64{1, 100, 3, 77, 50} {
		trace = append(trace, Access{Worker: 1, Table: 1, Key: k})
	}
	st := Predictability(trace, 1)
	if st.Workers != 2 || st.Accesses != 15 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanRunLength < 5 {
		t.Fatalf("mean run length = %f", st.MeanRunLength)
	}
	// Other tables are excluded.
	st2 := Predictability(trace, 2)
	if st2.Accesses != 0 {
		t.Fatal("table filter broken")
	}
}

// BenchmarkHistogramObserve: one Observe per op, durations cycling over
// the buckets (the tracer's and the engine's latency recording).
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i&1023) * time.Microsecond)
	}
}
