package btree

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeWorker simulates a DORA partition worker for access-path tests: a
// goroutine serving shipped closures from a channel, the way a partition
// serves shipMsgs. All operations an owner performs run on this loop,
// honouring the one-thread-per-subtree contract.
type fakeWorker struct {
	tok  *Owner
	ch   chan func(*Owner)
	wg   sync.WaitGroup
	runs int // closures served (loop-goroutine private)
}

func newFakeWorker() *fakeWorker {
	w := &fakeWorker{tok: NewOwner(), ch: make(chan func(*Owner), 64)}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for fn := range w.ch {
			fn(w.tok)
			w.runs++
		}
	}()
	return w
}

// do runs fn on the worker loop and waits.
func (w *fakeWorker) do(fn func(tok *Owner)) {
	done := make(chan struct{})
	w.ch <- func(tok *Owner) { fn(tok); close(done) }
	<-done
}

// exec is the OwnerExec hook shipped operations arrive through.
func (w *fakeWorker) exec() OwnerExec {
	return func(fn func(tok *Owner)) bool {
		done := make(chan struct{})
		w.ch <- func(tok *Owner) { fn(tok); close(done) }
		<-done
		return true
	}
}

func (w *fakeWorker) stop() {
	close(w.ch)
	w.wg.Wait()
}

// TestOwnerTokensDistinct guards against the zero-size-struct trap: Go
// hands every zero-size allocation the same address, which would make
// all ownership tokens compare equal and let any worker take the
// latch-free path into any subtree.
func TestOwnerTokensDistinct(t *testing.T) {
	seen := map[*Owner]bool{}
	for i := 0; i < 64; i++ {
		tok := NewOwner()
		if seen[tok] {
			t.Fatal("NewOwner returned a duplicate token pointer")
		}
		seen[tok] = true
	}
}

func TestPartitionedSharedPathBasics(t *testing.T) {
	pt := NewPartitioned(nil)
	for i := int64(0); i < 500; i++ {
		if err := pt.InsertAs(nil, i, uint64(i)*3); err != nil {
			t.Fatal(err)
		}
	}
	if pt.Len() != 500 {
		t.Fatalf("Len = %d", pt.Len())
	}
	v, err := pt.GetAs(nil, 123)
	if err != nil || v != 369 {
		t.Fatalf("Get: %d %v", v, err)
	}
	if err := pt.InsertAs(nil, 123, 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if _, err := pt.DeleteAs(nil, 123); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.GetAs(nil, 123); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	var got []int64
	pt.AscendRangeAs(nil, 100, 110, func(k int64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 11 {
		t.Fatalf("scan hit %d keys", len(got))
	}
}

func TestPartitionedClaimOwnerAndForeign(t *testing.T) {
	pt := NewPartitioned(nil)
	for i := int64(0); i < 1000; i++ {
		if err := pt.InsertAs(nil, i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := newFakeWorker(), newFakeWorker()
	defer a.stop()
	defer b.stop()
	pt.Claim([]ClaimRange{
		{Lo: 0, Hi: 499, Owner: a.tok, Exec: a.exec()},
		{Lo: 500, Hi: 999, Owner: b.tok, Exec: b.exec()},
	})
	if n := pt.NumSubtrees(); n != 2 {
		t.Fatalf("subtrees = %d", n)
	}
	if n := pt.OwnedSubtrees(); n != 2 {
		t.Fatalf("owned = %d", n)
	}
	if pt.Len() != 1000 {
		t.Fatalf("Len after claim = %d", pt.Len())
	}
	// Owner-thread latch-free ops.
	a.do(func(tok *Owner) {
		if v, err := pt.GetAs(tok, 42); err != nil || v != 42 {
			t.Errorf("owner get: %d %v", v, err)
		}
		if err := pt.PutAs(tok, 42, 4242); err != nil {
			t.Errorf("owner put: %v", err)
		}
	})
	// Foreign (nil-token) ops ship to the owner and still work.
	if v, err := pt.GetAs(nil, 42); err != nil || v != 4242 {
		t.Fatalf("foreign get: %d %v", v, err)
	}
	// Cross-owner op: a touching b's range ships to b.
	a.do(func(tok *Owner) {
		if v, err := pt.GetAs(tok, 700); err != nil || v != 700 {
			t.Errorf("cross get: %d %v", v, err)
		}
	})
	// A full scan crosses both subtrees (and ships per segment).
	count := 0
	pt.AscendRangeAs(nil, 0, 999, func(k int64, v uint64) bool {
		count++
		return true
	})
	if count != 1000 {
		t.Fatalf("scan visited %d", count)
	}
	// Release: everything reverts to the shared latched path.
	pt.Release()
	if n := pt.OwnedSubtrees(); n != 0 {
		t.Fatalf("owned after release = %d", n)
	}
	if v, err := pt.GetAs(nil, 700); err != nil || v != 700 {
		t.Fatalf("shared get after release: %d %v", v, err)
	}
}

// TestPartitionedOwnershipViolationPanics: with an owner installed but no
// executor, a non-owner descent has no legal path — it must panic, not
// silently race into the latch-free subtree.
func TestPartitionedOwnershipViolationPanics(t *testing.T) {
	pt := NewPartitioned(nil)
	_ = pt.InsertAs(nil, 1, 1)
	pt.Claim([]ClaimRange{{Lo: 0, Hi: 100, Owner: NewOwner(), Exec: nil}})
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s by non-owner did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("Get", func() { _, _ = pt.GetAs(nil, 1) })
	assertPanics("Insert", func() { _ = pt.InsertAs(nil, 2, 2) })
	assertPanics("Scan", func() { pt.AscendRangeAs(nil, 0, 10, func(int64, uint64) bool { return true }) })
	assertPanics("Get with wrong token", func() { _, _ = pt.GetAs(NewOwner(), 1) })
}

// TestPartitionedMoveRange hands a suffix of an owned range to a new
// owner (the access-path half of a partition split) and checks both
// sides keep serving.
func TestPartitionedMoveRange(t *testing.T) {
	pt := NewPartitioned(nil)
	for i := int64(0); i < 400; i++ {
		_ = pt.InsertAs(nil, i, uint64(i))
	}
	a, b := newFakeWorker(), newFakeWorker()
	defer a.stop()
	defer b.stop()
	pt.Claim([]ClaimRange{{Lo: 0, Hi: 399, Owner: a.tok, Exec: a.exec()}})
	// Split: a hands [200, 399] to b, on a's own loop.
	a.do(func(tok *Owner) {
		pt.MoveRange(tok, 200, 399, b.tok, b.exec(), nil)
	})
	// Claim padded a's range to cover all of int64, so the interior move
	// cuts three pieces: [-inf,199] a, [200,399] b, [400,+inf] a.
	if n := pt.NumSubtrees(); n != 3 {
		t.Fatalf("subtrees after move = %d", n)
	}
	b.do(func(tok *Owner) {
		if v, err := pt.GetAs(tok, 300); err != nil || v != 300 {
			t.Errorf("new owner get: %d %v", v, err)
		}
		if err := pt.InsertAs(tok, 1300, 1300); err != nil {
			t.Errorf("new owner insert: %v", err)
		}
	})
	a.do(func(tok *Owner) {
		if v, err := pt.GetAs(tok, 100); err != nil || v != 100 {
			t.Errorf("old owner get: %d %v", v, err)
		}
	})
	if pt.Len() != 401 {
		t.Fatalf("Len after split = %d", pt.Len())
	}
	// Merge: b evacuates everything back to a by reassignment.
	b.do(func(tok *Owner) {
		pt.ReassignOwner(tok, a.tok, a.exec(), nil)
	})
	a.do(func(tok *Owner) {
		if v, err := pt.GetAs(tok, 1300); err != nil || v != 1300 {
			t.Errorf("post-merge get: %d %v", v, err)
		}
	})
}

// TestPartitionedConcurrentStress hammers a claimed tree from owner
// threads, cross-partition writers and foreign readers while a split and
// a merge run mid-traffic. Meant for -race: any non-owner descent into a
// latch-free subtree shows up as a data race.
func TestPartitionedConcurrentStress(t *testing.T) {
	const perOwner = 2000
	pt := NewPartitioned(nil)
	workers := make([]*fakeWorker, 4)
	claims := make([]ClaimRange, 4)
	for i := range workers {
		workers[i] = newFakeWorker()
		lo := int64(i) * 10000
		claims[i] = ClaimRange{Lo: lo, Hi: lo + 9999, Owner: workers[i].tok, Exec: workers[i].exec()}
	}
	pt.Claim(claims)

	var wg sync.WaitGroup
	// Each owner inserts/reads/deletes inside its own range, plus a few
	// cross-partition reads that must ship.
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *fakeWorker) {
			defer wg.Done()
			base := int64(i) * 10000
			for n := 0; n < perOwner; n++ {
				k := base + int64(n)%9000
				w.do(func(tok *Owner) {
					_ = pt.PutAs(tok, k, uint64(k))
					if v, err := pt.GetAs(tok, k); err != nil || v != uint64(k) {
						t.Errorf("owner %d get %d: %d %v", i, k, v, err)
					}
					// Cross-partition reads ship to a HIGHER-indexed owner
					// only: shipping blocks the sender until the target's
					// loop serves it, so the ship graph must stay acyclic
					// (the same constraint DORA's workloads obey — e.g.
					// TPC-C ships orders→order_line, never back).
					if n%97 == 0 && i < 3 {
						cross := (int64(i)+1)*10000 + int64(n)%4000
						_, _ = pt.GetAs(tok, cross)
					}
					if n%13 == 0 {
						_, _ = pt.DeleteAs(tok, k)
					}
				})
			}
		}(i, w)
	}
	// Foreign readers: nil-token gets and range scans across all ranges.
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int64((n * 37) % 40000)
				_, _ = pt.GetAs(nil, k)
				if n%50 == 0 {
					pt.AscendRangeAs(nil, 5000, 15000, func(int64, uint64) bool { return true })
				}
			}
		}(r)
	}
	// Mid-traffic topology churn: worker 0 hands its upper half to a new
	// worker, which later merges back — the rebalance hand-off shape.
	extra := newFakeWorker()
	workers[0].do(func(tok *Owner) {
		pt.MoveRange(tok, 5000, 9999, extra.tok, extra.exec(), nil)
	})
	extra.do(func(tok *Owner) {
		_ = pt.PutAs(tok, 7777, 7777)
	})
	extra.do(func(tok *Owner) {
		pt.ReassignOwner(tok, workers[0].tok, workers[0].exec(), nil)
	})

	// Wait for the owner load, then stop the readers.
	wg.Wait()
	close(stop)
	readerWG.Wait()

	// Verify every surviving key reads back correctly over the shared
	// path after release.
	pt.Release()
	bad := 0
	pt.AscendRangeAs(nil, 0, 50000, func(k int64, v uint64) bool {
		if k != 7777 && uint64(k) != v {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d keys with wrong values after stress", bad)
	}
	for _, w := range workers {
		w.stop()
	}
	extra.stop()
}

// TestBulkLoadShape checks the bulk loader produces a searchable,
// scannable tree at several sizes (including node-boundary edges).
func TestBulkLoadShape(t *testing.T) {
	for _, n := range []int{0, 1, bulkFill, bulkFill + 1, bulkFill * bulkFill, 5000} {
		pairs := make([]kv, n)
		for i := range pairs {
			pairs[i] = kv{int64(i * 2), uint64(i)}
		}
		tr := newTreeFromSorted(nil, pairs)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		for i := 0; i < n; i += 1 + n/17 {
			if v, err := tr.Get(int64(i * 2)); err != nil || v != uint64(i) {
				t.Fatalf("n=%d: Get(%d)=%d,%v", n, i*2, v, err)
			}
		}
		count := 0
		last := int64(-1)
		tr.AscendRange(-1, int64(2*n+5), func(k int64, v uint64) bool {
			if k <= last {
				t.Fatalf("n=%d: out-of-order scan", n)
			}
			last = k
			count++
			return true
		})
		if count != n {
			t.Fatalf("n=%d: scanned %d", n, count)
		}
		// The bulk-loaded tree must keep accepting inserts (splits work).
		if n > 0 {
			for i := 0; i < 200; i++ {
				if err := tr.Insert(int64(i*2+1), 9); err != nil {
					t.Fatalf("n=%d: post-load insert: %v", n, err)
				}
			}
		}
	}
}

// TestStopEarlyAcrossSubtrees ensures fn returning false stops a scan
// that spans owned subtrees.
func TestStopEarlyAcrossSubtrees(t *testing.T) {
	pt := NewPartitioned(nil)
	for i := int64(0); i < 100; i++ {
		_ = pt.InsertAs(nil, i, uint64(i))
	}
	a, b := newFakeWorker(), newFakeWorker()
	defer a.stop()
	defer b.stop()
	pt.Claim([]ClaimRange{
		{Lo: 0, Hi: 49, Owner: a.tok, Exec: a.exec()},
		{Lo: 50, Hi: 99, Owner: b.tok, Exec: b.exec()},
	})
	seen := 0
	pt.AscendRangeAs(nil, 0, 99, func(k int64, v uint64) bool {
		seen++
		return k < 60 // stop inside b's subtree
	})
	if seen != 61 {
		t.Fatalf("scan visited %d keys, want 61 (0..60 inclusive)", seen)
	}
}

// TestShipRetryPacing: the fail-back pacing discipline — the first
// rounds only yield (counted as retries, not waits), later rounds sleep
// with exponential growth capped at 1ms, and the stats expose the split.
func TestShipRetryPacing(t *testing.T) {
	pt := NewPartitioned(nil)
	for a := 0; a < shipRetryYields; a++ {
		pt.shipRetry(a)
	}
	if r, w := pt.ShipRetryStats(); r != int64(shipRetryYields) || w != 0 {
		t.Fatalf("yield-only rounds: retries=%d waits=%d", r, w)
	}
	// A deep attempt must sleep, but no longer than the cap (plus
	// scheduler slop).
	start := time.Now()
	pt.shipRetry(shipRetryYields + 20)
	el := time.Since(start)
	if el > 50*shipRetryMaxWait {
		t.Fatalf("capped backoff slept %v (cap %v)", el, shipRetryMaxWait)
	}
	if r, w := pt.ShipRetryStats(); r != int64(shipRetryYields)+1 || w != 1 {
		t.Fatalf("after deep attempt: retries=%d waits=%d", r, w)
	}
}
