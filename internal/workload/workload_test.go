package workload

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"dora/internal/xct"
)

func TestUniformDomain(t *testing.T) {
	g := Uniform{Lo: 10, Hi: 20}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		k := g.Next(rng)
		if k < 10 || k > 20 {
			t.Fatalf("key %d out of domain", k)
		}
	}
}

func TestHotspotMoves(t *testing.T) {
	g := NewHotspot(1, 1000, 1.0, 10) // all draws hot
	rng := rand.New(rand.NewSource(3))
	g.SetCenter(100)
	for i := 0; i < 100; i++ {
		k := g.Next(rng)
		if k < 90 || k > 110 {
			t.Fatalf("key %d outside hot window at 100", k)
		}
	}
	g.SetCenter(900)
	for i := 0; i < 100; i++ {
		k := g.Next(rng)
		if k < 890 || k > 910 {
			t.Fatalf("key %d outside hot window at 900", k)
		}
	}
	// Clamping at the edge.
	g.SetCenter(2)
	for i := 0; i < 100; i++ {
		if k := g.Next(rng); k < 1 || k > 1000 {
			t.Fatalf("key %d escaped domain", k)
		}
	}
}

func TestQuickHotspotInDomain(t *testing.T) {
	f := func(seed int64, center int64) bool {
		g := NewHotspot(1, 500, 0.7, 25)
		g.SetCenter(center % 600) // may be out of range: must clamp
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			k := g.Next(rng)
			if k < 1 || k > 500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMixPickRespectsWeights(t *testing.T) {
	m := Mix{
		{Name: "a", Weight: 90},
		{Name: "b", Weight: 10},
	}
	rng := rand.New(rand.NewSource(4))
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[m.Pick(rng).Name]++
	}
	if counts["a"] < 8500 || counts["a"] > 9500 {
		t.Fatalf("weight-90 type picked %d/10000", counts["a"])
	}
}

// fakeEngine commits instantly, failing every k-th execution.
type fakeEngine struct {
	n     atomic.Int64
	every int64
}

func (f *fakeEngine) Name() string { return "fake" }
func (f *fakeEngine) Close() error { return nil }
func (f *fakeEngine) Exec(worker int, flow *xct.Flow) error {
	n := f.n.Add(1)
	if f.every > 0 && n%f.every == 0 {
		return errors.New("synthetic abort")
	}
	return nil
}

func TestDriverRunCountsAndTimeline(t *testing.T) {
	e := &fakeEngine{every: 10}
	mix := Mix{{Name: "noop", Weight: 1, Build: func(rng *rand.Rand) *xct.Flow {
		return xct.NewFlow("noop")
	}}}
	res := (&Driver{
		Engine: e, Mix: mix, Clients: 4,
		Duration: 150 * time.Millisecond, Seed: 9,
		SampleEvery: 25 * time.Millisecond,
	}).Run()
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if res.Retries == 0 {
		t.Fatal("synthetic aborts never retried")
	}
	if res.Aborted != 0 {
		t.Fatalf("aborted = %d (retries should have recovered)", res.Aborted)
	}
	if len(res.Timeline) < 3 {
		t.Fatalf("timeline samples = %d", len(res.Timeline))
	}
	if res.PerTxn["noop"] != res.Committed {
		t.Fatalf("per-txn accounting: %v vs %d", res.PerTxn, res.Committed)
	}
	if res.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestDriverThinkTimeLimitsRate(t *testing.T) {
	e := &fakeEngine{}
	mix := Mix{{Name: "noop", Weight: 1, Build: func(rng *rand.Rand) *xct.Flow {
		return xct.NewFlow("noop")
	}}}
	res := (&Driver{
		Engine: e, Mix: mix, Clients: 2,
		Duration: 200 * time.Millisecond, ThinkTime: 50 * time.Millisecond, Seed: 9,
	}).Run()
	// 2 clients, 50ms think time, 200ms -> at most ~12 transactions.
	if res.Committed > 20 {
		t.Fatalf("think time ignored: %d committed", res.Committed)
	}
}
