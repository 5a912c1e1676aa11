package balance

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/dora"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/workload"
	"dora/internal/xct"
)

func rig(t *testing.T, n int64, parts int) (*sm.SM, *catalog.Table, *dora.Dora) {
	t.Helper()
	s, err := sm.Open(sm.Options{Frames: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable(sm.TableSpec{
		Name: "kv",
		Fields: []catalog.Field{
			{Name: "k", Type: tuple.TInt},
			{Name: "alt", Type: tuple.TInt},
			{Name: "v", Type: tuple.TInt},
		},
		KeyFields: []string{"k"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
	})
	if err != nil {
		t.Fatal(err)
	}
	ses := s.Session(0)
	load := s.Begin()
	for i := int64(1); i <= n; i++ {
		if err := ses.Insert(load, tbl, tuple.Record{tuple.I(i), tuple.I(n + 1 - i), tuple.I(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(load); err != nil {
		t.Fatal(err)
	}
	e := dora.New(s, dora.Config{
		PartitionsPerTable: parts,
		Domains:            map[string][2]int64{"kv": {1, n}},
	})
	t.Cleanup(func() { _ = e.Close() })
	return s, tbl, e
}

func writeFlow(tbl *catalog.Table, k int64) *xct.Flow {
	return xct.NewFlow("write").AddPhase(&xct.Action{
		Table: "kv", KeyField: "k", Key: k, Mode: xct.Write,
		Run: func(env *xct.Env) error {
			return env.Ses.Mutate(env.Txn, tbl, k, func(r tuple.Record) tuple.Record {
				r[2] = tuple.I(r[2].Int + 1)
				return r
			})
		},
	})
}

func TestBalancerSplitsHotPartition(t *testing.T) {
	_, tbl, e := rig(t, 1000, 2)
	b := NewBalancer(e, Policy{Every: 10 * time.Millisecond, MinQueue: 2, MaxParts: 8}, "kv")
	b.Start()
	defer b.Stop()

	// Hammer a narrow hot range that lands in one partition.
	hot := workload.NewHotspot(1, 1000, 0.95, 50)
	hot.SetCenter(250)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := hot.Next(rng)
				_ = e.Exec(c, writeFlow(tbl, k))
			}
		}(c)
	}
	deadline := time.After(3 * time.Second)
	for b.Splits.Load() == 0 {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("balancer never split (queue stats: %+v)", e.PartitionStats())
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	if e.NumPartitions("kv") < 3 {
		t.Fatalf("partitions = %d after split", e.NumPartitions("kv"))
	}
}

// TestBalancerDefersWhileConverging: the maintenance-aware balancer
// withholds split/merge decisions while the maintenance daemon reports
// the table mid-migration, and acts on the standing imbalance as soon
// as convergence is reached.
func TestBalancerDefersWhileConverging(t *testing.T) {
	_, tbl, e := rig(t, 1000, 2)
	var converging atomic.Bool
	converging.Store(true)
	b := NewBalancer(e, Policy{Every: 10 * time.Millisecond, MinQueue: 2, MaxParts: 8}, "kv")
	b.SetMaintGate(func(table string) bool {
		if table != "kv" {
			t.Errorf("gate probed for table %q", table)
		}
		return converging.Load()
	})
	b.Start()
	defer b.Stop()

	hot := workload.NewHotspot(1, 1000, 0.95, 50)
	hot.SetCenter(250)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = e.Exec(c, writeFlow(tbl, hot.Next(rng)))
			}
		}(c)
	}
	// While converging: the split pressure registers only as deferrals.
	deadline := time.After(3 * time.Second)
	for b.Deferred.Load() == 0 {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("no deferred decisions under load (stats: %+v)", e.PartitionStats())
		case <-time.After(20 * time.Millisecond):
		}
	}
	if b.Splits.Load() != 0 {
		close(stop)
		wg.Wait()
		t.Fatalf("balancer split mid-migration (splits=%d)", b.Splits.Load())
	}
	// Converged: the next samples act on the imbalance.
	converging.Store(false)
	deadline = time.After(3 * time.Second)
	for b.Splits.Load() == 0 {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatal("balancer never split after convergence")
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
}

func TestAdvisorSuggestsRepartitioning(t *testing.T) {
	s, tbl, e := rig(t, 500, 2)
	adv := NewAlignmentAdvisor(e)
	adv.MinSamples = 50

	// Run transactions keyed by the "alt" field — all unaligned.
	resolve := func(k int64) xct.Resolver {
		return func(env *xct.Env, field string) (int64, error) {
			// alt = n+1-k bijection: invert directly (stand-in for an
			// index probe; advisors only see the dispatch counters).
			return 501 - k, nil
		}
	}
	for i := int64(1); i <= 100; i++ {
		flow := xct.NewFlow("by-alt").AddPhase(&xct.Action{
			Table: "kv", KeyField: "alt", Key: i, Mode: xct.Read,
			Resolve: resolve(i),
			Run:     func(env *xct.Env) error { return nil },
		})
		if err := e.Exec(0, flow); err != nil {
			t.Fatal(err)
		}
	}
	sugg := adv.CheckEngine(func(id uint32) string {
		if tb := s.Cat.TableByID(id); tb != nil {
			return tb.Name
		}
		return ""
	})
	if len(sugg) != 1 || sugg[0].Table != "kv" || sugg[0].Field != "alt" {
		t.Fatalf("suggestions: %+v", sugg)
	}
	if sugg[0].UnalignedShare < 0.9 {
		t.Fatalf("unaligned share = %f", sugg[0].UnalignedShare)
	}

	// Apply the suggestion; subsequent by-alt accesses become aligned.
	if err := e.Repartition("kv", "alt", 1, 500); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 60; i++ {
		flow := xct.NewFlow("by-alt").AddPhase(&xct.Action{
			Table: "kv", KeyField: "alt", Key: i, Mode: xct.Read,
			Run: func(env *xct.Env) error { return nil },
		})
		if err := e.Exec(0, flow); err != nil {
			t.Fatal(err)
		}
	}
	if again := adv.CheckEngine(func(uint32) string { return "kv" }); len(again) != 0 {
		t.Fatalf("advisor still unhappy after repartition: %+v", again)
	}
	_ = tbl
}
