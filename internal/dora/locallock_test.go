package dora

import (
	"testing"

	"dora/internal/tx"
	"dora/internal/xct"
)

func mkMsg(txnID uint64, mode xct.Mode, claim bool) *actionMsg {
	return &actionMsg{
		act:   &xct.Action{Mode: mode},
		run:   &flowRun{txn: tx.Txn{ID: txnID}},
		claim: claim,
	}
}

// The TestLocalLock* cases drive the hierarchical table through its
// point-lock path only (escalation off), checking the per-key behaviours
// every local lock table must keep.

// grant asks lt for txn's point lock on key.
func grant(lt *hierLockTable, txn uint64, key int64, mode xct.Mode) bool {
	return lt.acquire(hierPoint(txn, key, mode))
}

// park queues am on key at the node its acquire blocks on.
func park(t *testing.T, lt *hierLockTable, key int64, am *actionMsg) {
	t.Helper()
	am.routeKey = key
	if lt.acquire(am) {
		t.Fatalf("txn %d granted on key %d, expected to wait", am.run.txn.ID, key)
	}
	lt.wait(am)
}

func TestLocalLockReadersShare(t *testing.T) {
	lt := newHierLockTable(-1)
	if !grant(lt, 10, 1, xct.Read) {
		t.Fatal("first reader refused")
	}
	if !grant(lt, 11, 1, xct.Read) {
		t.Fatal("second reader refused")
	}
	if grant(lt, 12, 1, xct.Write) {
		t.Fatal("writer admitted alongside readers")
	}
}

func TestLocalLockWriterExcludes(t *testing.T) {
	lt := newHierLockTable(-1)
	if !grant(lt, 10, 1, xct.Write) {
		t.Fatal("writer refused on free key")
	}
	if grant(lt, 11, 1, xct.Read) || grant(lt, 11, 1, xct.Write) {
		t.Fatal("conflicting grant under writer")
	}
	// Same transaction re-acquires freely.
	if !grant(lt, 10, 1, xct.Read) || !grant(lt, 10, 1, xct.Write) {
		t.Fatal("same-txn re-acquire refused")
	}
}

func TestLocalLockUpgrade(t *testing.T) {
	lt := newHierLockTable(-1)
	if !grant(lt, 20, 5, xct.Read) {
		t.Fatal("reader refused")
	}
	// Sole holder upgrades.
	if !grant(lt, 20, 5, xct.Write) {
		t.Fatal("sole-holder upgrade refused")
	}
	if grant(lt, 21, 5, xct.Read) {
		t.Fatal("reader admitted under upgraded writer")
	}
	// Shared holders cannot upgrade.
	lt2 := newHierLockTable(-1)
	grant(lt2, 30, 7, xct.Read)
	grant(lt2, 31, 7, xct.Read)
	if grant(lt2, 30, 7, xct.Write) {
		t.Fatal("upgrade granted with co-holders")
	}
}

func TestLocalLockFIFOWaiters(t *testing.T) {
	lt := newHierLockTable(-1)
	grant(lt, 10, 1, xct.Read)
	w1 := mkMsg(11, xct.Write, false)
	park(t, lt, 1, w1)
	// A reader arriving later must not overtake the queued writer, even
	// though it is compatible with the current holder.
	if grant(lt, 12, 1, xct.Read) {
		t.Fatal("reader overtook queued writer")
	}
	w2 := mkMsg(12, xct.Read, false)
	park(t, lt, 1, w2)
	if lt.waiting != 2 {
		t.Fatalf("waiting = %d", lt.waiting)
	}
	runnable := lt.release(10)
	if len(runnable) != 1 || runnable[0] != w1 {
		t.Fatalf("release granted %d waiters, want the writer first", len(runnable))
	}
	if lt.waiting != 1 {
		t.Fatalf("waiting = %d after first grant", lt.waiting)
	}
	runnable = lt.release(11)
	if len(runnable) != 1 || runnable[0] != w2 {
		t.Fatal("reader not granted after writer release")
	}
}

func TestLocalLockBatchedReaderGrant(t *testing.T) {
	lt := newHierLockTable(-1)
	grant(lt, 10, 1, xct.Write)
	r1, r2 := mkMsg(11, xct.Read, false), mkMsg(12, xct.Read, false)
	park(t, lt, 1, r1)
	park(t, lt, 1, r2)
	runnable := lt.release(10)
	if len(runnable) != 2 {
		t.Fatalf("released %d readers, want both", len(runnable))
	}
}

func TestLocalLockReleaseDropsWaitingClaims(t *testing.T) {
	lt := newHierLockTable(-1)
	grant(lt, 10, 1, xct.Write)
	cl := mkMsg(11, xct.Write, true)
	park(t, lt, 1, cl)
	// Txn 11 aborts elsewhere; its release must purge the parked claim
	// even though it holds no key lock.
	_ = lt.release(11)
	if lt.waiting != 0 {
		t.Fatalf("claim leaked: waiting = %d", lt.waiting)
	}
	// And the key frees normally afterwards.
	if got := lt.release(10); len(got) != 0 {
		t.Fatalf("unexpected runnable: %d", len(got))
	}
	if lt.heldKeys() != 0 {
		t.Fatalf("entries leaked: %d", lt.heldKeys())
	}
}

// TestLocalLockExtractAndAdopt splits inside one granule: the key above
// the cut travels with its waiter, the key below stays.
func TestLocalLockExtractAndAdopt(t *testing.T) {
	lt := newHierLockTable(-1)
	grant(lt, 1, 10, xct.Write)
	grant(lt, 2, 90, xct.Write)
	w := mkMsg(3, xct.Write, false)
	park(t, lt, 90, w)
	moved := lt.extractAbove(50)
	mg := moved.granules[granuleOf(90)]
	if mg == nil || len(mg.keys) != 1 || mg.keys[90] == nil {
		t.Fatalf("moved = %+v", moved.granules)
	}
	if lt.waiting != 0 {
		t.Fatalf("waiting after extract = %d", lt.waiting)
	}
	if g := lt.granules[granuleOf(10)]; g == nil || g.keys[10] == nil {
		t.Fatal("low key lost in split")
	}

	dst := newHierLockTable(-1)
	runnable := dst.adopt(moved)
	if len(runnable) != 0 {
		t.Fatal("waiter granted while holder still present")
	}
	if dst.waiting != 1 {
		t.Fatalf("adopted waiting = %d", dst.waiting)
	}
	got := dst.release(2)
	if len(got) != 1 || got[0] != w {
		t.Fatal("adopted waiter not granted on release")
	}
}

func TestInboxAtomicMultiEnqueueOrder(t *testing.T) {
	a, b := newInbox(), newInbox()
	m1, m2 := mkMsg(1, xct.Read, false), mkMsg(1, xct.Read, false)
	a.lockForEnqueue()
	b.lockForEnqueue()
	a.appendLocked(m1)
	b.appendLocked(m2)
	a.unlockAfterEnqueue()
	b.unlockAfterEnqueue()
	if a.length() != 1 || b.length() != 1 {
		t.Fatal("atomic enqueue lost messages")
	}
	batch, ok := a.popAll(nil)
	if !ok || len(batch) != 1 || batch[0] != m1 {
		t.Fatal("popAll order broken")
	}
	if a.length() != 0 {
		t.Fatalf("length after drain = %d", a.length())
	}
}

func TestInboxCloseDrains(t *testing.T) {
	ib := newInbox()
	ib.push(mkMsg(1, xct.Read, false))
	ib.close()
	if batch, ok := ib.popAll(nil); !ok || len(batch) != 1 {
		t.Fatal("queued message lost at close")
	}
	if _, ok := ib.popAll(nil); ok {
		t.Fatal("popAll on closed empty inbox returned a message")
	}
	if ib.pushChecked(mkMsg(2, xct.Read, false)) {
		t.Fatal("pushChecked accepted a message after close")
	}
}

func TestInboxBlockingPop(t *testing.T) {
	ib := newInbox()
	done := make(chan msg, 1)
	go func() {
		batch, _ := ib.popAll(nil)
		done <- batch[0]
	}()
	m := mkMsg(4, xct.Write, false)
	ib.push(m)
	if got := <-done; got != m {
		t.Fatal("blocked popAll returned wrong message")
	}
}

// TestLocalLockPromotesHolderPastBlockedHead: a release that grants a
// claim also grants the claiming transaction's own action parked behind
// a waiter the claim blocks, instead of leaving it behind that waiter —
// which waits for the very transaction the action belongs to.
func TestLocalLockPromotesHolderPastBlockedHead(t *testing.T) {
	lt := newHierLockTable(-1)
	if !grant(lt, 10, 1, xct.Write) {
		t.Fatal("writer refused on free key")
	}
	claim11 := mkMsg(11, xct.Write, true)
	act12 := mkMsg(12, xct.Write, false)
	act11 := mkMsg(11, xct.Write, false)
	park(t, lt, 1, claim11)
	park(t, lt, 1, act12)
	park(t, lt, 1, act11)
	runnable := lt.release(10)
	if len(runnable) != 2 || runnable[0] != claim11 || runnable[1] != act11 {
		t.Fatalf("release(10) granted %d waiters, want 11's claim and action", len(runnable))
	}
	if lt.waiting != 1 {
		t.Fatalf("waiting = %d, want 12's action still parked", lt.waiting)
	}
	runnable = lt.release(11)
	if len(runnable) != 1 || runnable[0] != act12 {
		t.Fatal("12's action not granted after 11 released")
	}
	if lt.waiting != 0 {
		t.Fatalf("waiting = %d after the last grant", lt.waiting)
	}
}
