package btree

import (
	"sync/atomic"
	"testing"
	"time"
)

// execAsync is the continuation-passing hook for a fakeWorker: the
// shipped closure runs on the worker loop and the completion is
// delivered through home (or inline on the loop without one) — the same
// contract DORA's partition workers implement with shipMsg/kontMsg.
func (w *fakeWorker) execAsync() OwnerExecAsync {
	return func(home ContExec, fn func(tok *Owner), done func(ok bool)) bool {
		w.ch <- func(tok *Owner) {
			fn(tok)
			if home != nil {
				home(func() { done(true) })
			} else {
				done(true)
			}
		}
		return true
	}
}

// home returns the worker's continuation executor: delivered closures
// run on its loop, like kontMsgs on a partition inbox.
func (w *fakeWorker) home() ContExec {
	return func(k func()) { w.ch <- func(*Owner) { k() } }
}

// TestExecAtAsyncLocalInline: on an unowned or self-owned subtree, fn
// and done run inline before ExecAtAsync returns — no message, no
// suspension.
func TestExecAtAsyncLocalInline(t *testing.T) {
	pt := NewPartitioned(nil)
	for i := int64(0); i < 100; i++ {
		if err := pt.InsertAs(nil, i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ran, completed := false, false
	pt.ExecAtAsync(nil, 50, nil, func(tok *Owner) {
		if tok != nil {
			t.Error("unowned subtree handed a token")
		}
		ran = true
	}, func() { completed = true })
	if !ran || !completed {
		t.Fatalf("inline path: ran=%v completed=%v", ran, completed)
	}

	a := newFakeWorker()
	defer a.stop()
	pt.Claim([]ClaimRange{{Lo: 0, Hi: 99, Owner: a.tok, Exec: a.exec(), ExecAsync: a.execAsync()}})
	a.do(func(tok *Owner) {
		ran, completed = false, false
		pt.ExecAtAsync(tok, 50, a.home(), func(got *Owner) {
			if got != tok {
				t.Error("owner path handed a foreign token")
			}
			ran = true
		}, func() { completed = true })
		if !ran || !completed {
			t.Errorf("owner inline path: ran=%v completed=%v", ran, completed)
		}
	})
}

// TestExecAtAsyncForeignShips: an operation on another worker's subtree
// ships without blocking the caller and the continuation is delivered
// through home.
func TestExecAtAsyncForeignShips(t *testing.T) {
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
		{Lo: 0, Hi: 499, Owner: a.tok, Exec: a.exec(), ExecAsync: a.execAsync()},
		{Lo: 500, Hi: 999, Owner: b.tok, Exec: b.exec(), ExecAsync: b.execAsync()},
	})
	completed := make(chan struct{})
	a.do(func(tok *Owner) {
		// From a's loop, operate on b's range: must return before the op
		// ran (b's loop is busy until we return) and complete later.
		pt.ExecAtAsync(tok, 700, a.home(), func(got *Owner) {
			if got != b.tok {
				t.Errorf("foreign op ran with wrong token")
			}
			if err := pt.upsertAsNL(got, 700, 7777); err != nil {
				t.Errorf("owner write: %v", err)
			}
		}, func() { close(completed) })
	})
	select {
	case <-completed:
	case <-time.After(10 * time.Second):
		t.Fatal("foreign continuation never delivered")
	}
	if v, err := pt.GetAs(nil, 700); err != nil || v != 7777 {
		t.Fatalf("after async write: %d %v", v, err)
	}
}

// upsertAsNL writes through the owner path for the test above (PutAs
// from the owner's thread).
func (pt *PartitionedTree) upsertAsNL(tok *Owner, key int64, val uint64) error {
	return pt.PutAs(tok, key, val)
}

// TestAscendRangeAsyncMixedOwnership: a scan spanning a local and a
// foreign segment visits every key in order and completes through the
// continuation.
func TestAscendRangeAsyncMixedOwnership(t *testing.T) {
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
		{Lo: 0, Hi: 499, Owner: a.tok, Exec: a.exec(), ExecAsync: a.execAsync()},
		{Lo: 500, Hi: 999, Owner: b.tok, Exec: b.exec(), ExecAsync: b.execAsync()},
	})
	var keys []int64
	var count atomic.Int64
	done := make(chan struct{})
	a.do(func(tok *Owner) {
		pt.AscendRangeAsync(tok, 450, 550, a.home(), func(k int64, v uint64) bool {
			keys = append(keys, k)
			count.Add(1)
			return true
		}, func() { close(done) })
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("async scan never completed")
	}
	if count.Load() != 101 {
		t.Fatalf("scan visited %d keys, want 101", count.Load())
	}
	for i, k := range keys {
		if k != int64(450+i) {
			t.Fatalf("scan out of order at %d: %d", i, k)
		}
	}

	// Early stop from inside a foreign segment.
	stopped := make(chan struct{})
	var n int
	a.do(func(tok *Owner) {
		pt.AscendRangeAsync(tok, 450, 999, a.home(), func(k int64, v uint64) bool {
			n++
			return k < 520
		}, func() { close(stopped) })
	})
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stopped scan never completed")
	}
	if n != 71 { // 450..520 inclusive; fn stops at 520
		t.Fatalf("stopped scan visited %d keys, want 71", n)
	}
}
