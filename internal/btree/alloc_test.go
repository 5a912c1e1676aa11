package btree

import (
	"math"
	"testing"
)

// ownedTree returns a partitioned tree of n keys whose whole key space
// is claimed by w (foreign callers ship through w's loop).
func ownedTree(n int64, w *fakeWorker) *PartitionedTree {
	pt := NewPartitioned(nil)
	for i := int64(0); i < n; i++ {
		if err := pt.InsertAs(nil, i, uint64(i)); err != nil {
			panic(err)
		}
	}
	pt.Claim([]ClaimRange{{Lo: math.MinInt64, Hi: math.MaxInt64, Owner: w.tok, Exec: w.exec()}})
	return pt
}

// TestTreeOwnerGetAllocFree: the owner's point read descends its own
// subtree latch-free and allocates nothing — the ship path's closure is
// built only for foreign callers.
func TestTreeOwnerGetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w := newFakeWorker()
	defer w.stop()
	pt := ownedTree(1000, w)
	var allocs float64
	w.do(func(tok *Owner) {
		k := int64(0)
		allocs = testing.AllocsPerRun(1000, func() {
			k = (k + 7) % 1000
			if v, err := pt.GetAs(tok, k); err != nil || v != uint64(k) {
				t.Errorf("owner get %d: %d %v", k, v, err)
			}
		})
	})
	if allocs != 0 {
		t.Fatalf("owner GetAs: %.1f allocs, want 0", allocs)
	}
}

func BenchmarkTreeOwnerGet(b *testing.B) {
	w := newFakeWorker()
	defer w.stop()
	pt := ownedTree(100000, w)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	w.do(func(tok *Owner) {
		for i := 0; i < b.N && err == nil; i++ {
			_, err = pt.GetAs(tok, int64(i*7919)%100000)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTreeForeignGet: the same read from a non-owner, shipped to
// the owner's loop and waited for.
func BenchmarkTreeForeignGet(b *testing.B) {
	w := newFakeWorker()
	defer w.stop()
	pt := ownedTree(100000, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pt.GetAs(nil, int64(i*7919)%100000); err != nil {
			b.Fatal(err)
		}
	}
}
