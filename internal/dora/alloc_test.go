package dora

import (
	"testing"

	"dora/internal/catalog"
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
// and 7 before the storage transaction, the action message and the
// commit completion moved into the run. What is left: the run, the
// record decode and its latched copy (the test loads its rows on the
// shared path, so their pages are unstamped).
const execAsyncReadAllocs = 3

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

// execAsyncTwoPhaseAllocs is the allocation ceiling of one ExecAsync of
// a prebuilt TPC-B-shaped flow on a two-partition engine: three writes
// on both partitions, then a phase-1 write whose lock phase 0 claimed.
// It measured 15 before the storage transaction, the messages and the
// commit completion moved into the run; what is left is the run, the
// phase-1 rendezvous point, the four rows' latched copies (rows loaded on
// the shared path) and the log's completion goroutine.
const execAsyncTwoPhaseAllocs = 7

// twoPhaseFlow is the TPC-B-shaped flow: phase 0 bumps the balances of
// rows 10, 60 and 30, phase 1 that of row 20.
func twoPhaseFlow(tbl *catalog.Table) *xct.Flow {
	return bumpFlow(tbl, 2, []int64{10, 60, 30}, 20)
}

func TestExecAsyncTwoPhaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	_, tbl, e := rig(t, 100, 2)
	flow := twoPhaseFlow(tbl)
	verdict := make(chan error, 1)
	done := func(err error) { verdict <- err }
	run := func() {
		e.ExecAsync(0, flow, done)
		if err := <-verdict; err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the lock tables, the inboxes and the commit path
	if n := testing.AllocsPerRun(500, run); n > execAsyncTwoPhaseAllocs {
		t.Fatalf("ExecAsync two-phase: %.1f allocs/txn, ceiling %d", n, execAsyncTwoPhaseAllocs)
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

// BenchmarkExecAsyncTwoPhase: one TPC-B-shaped two-phase transaction
// (twoPhaseFlow) per op through a two-partition engine, dispatch to
// verdict.
func BenchmarkExecAsyncTwoPhase(b *testing.B) {
	_, tbl, e := rig(b, 100, 2)
	flow := twoPhaseFlow(tbl)
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
