package dora

import (
	"testing"

	"dora/internal/xct"
)

// Allocation ceilings for the transaction hot path. These are counts,
// not timings: they hold on any machine, so they gate like any other
// test. The layer benchmarks below report the same paths with
// b.ReportAllocs.

// execAsyncReadAllocs is the allocation ceiling of one ExecAsync of a
// prebuilt single-action aligned read flow on a one-partition engine,
// measured from dispatch to the client's verdict (every goroutine
// counts). It measured 40 (41 in some runs) before worker-private
// lock-table reuse, closure-free dispatch and the owner read fast path,
// and 7 after: the run, its transaction, the action message, the commit
// continuation, the read-only commit's completion, the record decode
// and its latched copy (the test loads its rows on the shared path, so
// their pages are unstamped).
const execAsyncReadAllocs = 7

func TestExecAsyncReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	_, tbl, e := rig(t, 100, 1)
	var bal int64
	flow := readFlow(tbl, 42, &bal)
	verdict := make(chan error, 1)
	done := func(err error) { verdict <- err }
	run := func() {
		e.ExecAsync(0, flow, done)
		if err := <-verdict; err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the lock table, the inbox and the commit path
	if n := testing.AllocsPerRun(500, run); n > execAsyncReadAllocs {
		t.Fatalf("ExecAsync read: %.1f allocs/txn, ceiling %d", n, execAsyncReadAllocs)
	}
}

// TestHierLockPointAllocFree: a warmed table grants and releases a
// point lock without allocating — across keys and granules, since every
// release returns the transaction index, key node and granule to the
// table's free lists.
func TestHierLockPointAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	lt := newHierLockTable(0)
	am := hierPoint(1, 0, xct.Write)
	key := int64(0)
	cycle := func() {
		key = (key + 97) % 4096
		am.routeKey = key
		if !lt.acquire(am) {
			t.Fatal("point lock refused on an empty table")
		}
		lt.release(am.run.txn.ID)
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("point acquire+release: %.1f allocs, want 0", n)
	}
}

func BenchmarkHierLockPoint(b *testing.B) {
	lt := newHierLockTable(0)
	am := hierPoint(1, 0, xct.Write)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		am.routeKey = int64(i*97) % 4096
		if !lt.acquire(am) {
			b.Fatal("point lock refused")
		}
		lt.release(am.run.txn.ID)
	}
}

// BenchmarkHierLockRange: a ranged S over four granules plus its release.
func BenchmarkHierLockRange(b *testing.B) {
	lt := newHierLockTable(0)
	am := hierRange(1, 0, 0, xct.Read)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := int64(i%64) << granuleBits
		am.act.RangeLo, am.act.RangeHi, am.rangeNext = lo, lo+4<<granuleBits-1, 0
		if !lt.acquire(am) {
			b.Fatal("range lock refused")
		}
		lt.release(1)
	}
}

// BenchmarkInboxPushPopAll: one push per op, drained by popAll every 64
// pushes (the worker's batch loop).
func BenchmarkInboxPushPopAll(b *testing.B) {
	ib := newInbox()
	m := &releaseMsg{txn: 1}
	var buf []msg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ib.push(m)
		if i%64 == 63 {
			batch, _ := ib.popAll(buf)
			buf = batch
		}
	}
}

// BenchmarkInboxParkWake: a ping-pong between two inboxes, each drained
// by its own goroutine the way a partition worker drains its queue. Every
// op is one round trip, so each side parks in popAll and is woken by the
// other's push once per op: the cost of handing work to an idle worker.
func BenchmarkInboxParkWake(b *testing.B) {
	ping, pong := newInbox(), newInbox()
	m := &releaseMsg{txn: 1}
	go func() {
		var buf []msg
		for {
			batch, ok := pong.popAll(buf)
			if !ok {
				return
			}
			for range batch {
				ping.push(m)
			}
			buf = batch
		}
	}()
	defer pong.close()
	var buf []msg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pong.push(m)
		batch, _ := ping.popAll(buf)
		buf = batch
	}
}

// BenchmarkExecAsyncRead: one single-action aligned read transaction
// per op through a one-partition engine, dispatch to verdict.
func BenchmarkExecAsyncRead(b *testing.B) {
	_, tbl, e := rig(b, 100, 1)
	var bal int64
	flow := readFlow(tbl, 42, &bal)
	verdict := make(chan error, 1)
	done := func(err error) { verdict <- err }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExecAsync(0, flow, done)
		if err := <-verdict; err != nil {
			b.Fatal(err)
		}
	}
}
