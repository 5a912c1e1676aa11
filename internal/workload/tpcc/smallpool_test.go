package tpcc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dora/internal/buffer"
	"dora/internal/sm"
)

// TestYTDInvariantSmallPool: the TPC-C mix over a 1,024-frame pool. The
// data outgrows the pool about halfway through the run, and from then on
// the workers' own Fetch misses evict dirty pages while the engine's
// cleaner writes back. Every
// committed Payment adds the same amount to W_YTD and to one D_YTD, so
// W_YTD = ΣD_YTD must hold afterwards, and the checked disk must never
// see a page move back in time.
func TestYTDInvariantSmallPool(t *testing.T) {
	const clients = 2
	perClient := 20000
	if raceEnabled {
		perClient = 2000
	}
	disk := buffer.NewCheckedDisk(buffer.NewMemDisk())
	s, err := sm.Open(sm.Options{Frames: 1024, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Load(s, DefaultScale(2))
	if err != nil {
		t.Fatal(err)
	}
	e := newDora(t, db)
	mix := db.NewMix(MixOptions{})
	var failed sync.Map // error text -> struct{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			// A refused write wedges the page it belongs to, so stop at
			// the first one.
			for i := 0; i < perClient && disk.Err() == nil; i++ {
				err := e.Exec(c, mix.Pick(rng).Build(rng))
				if err != nil && !errors.Is(err, sm.ErrNotFound) && !errors.Is(err, sm.ErrDuplicate) && !errors.Is(err, ErrInvalidItem) {
					failed.Store(err.Error(), struct{}{})
				}
			}
		}(c)
	}
	wg.Wait()
	failed.Range(func(k, _ any) bool {
		t.Logf("failed transaction: %v", k)
		return true
	})
	if err := disk.Err(); err != nil {
		t.Fatal(err)
	}
	// The race build runs too few transactions to outgrow the pool.
	if db.SM.Pool.Evictions.Load() == 0 && !raceEnabled {
		t.Fatal("no evictions: the pool holds the whole database")
	}
	ses := db.SM.Session(0)
	for w := int64(1); w <= db.Scale.Warehouses; w++ {
		wrec, err := ses.Read(db.SM.Begin(), db.Warehouse, w)
		if err != nil {
			t.Fatal(err)
		}
		var dsum int64
		for d := int64(1); d <= db.Scale.DistrictsPerW; d++ {
			drec, err := ses.Read(db.SM.Begin(), db.District, DKey(w, d))
			if err != nil {
				t.Fatal(err)
			}
			dsum += drec[2].Int
		}
		if wrec[1].Int != dsum {
			t.Errorf("warehouse %d W_YTD %d != sum D_YTD %d", w, wrec[1].Int, dsum)
		}
	}
}
