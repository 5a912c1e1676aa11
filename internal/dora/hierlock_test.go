package dora

import (
	"testing"

	"dora/internal/tx"
	"dora/internal/xct"
)

func hierPoint(txn uint64, key int64, mode xct.Mode) *actionMsg {
	am := mkMsg(txn, mode, false)
	am.routeKey = key
	return am
}

func hierRange(txn uint64, lo, hi int64, mode xct.Mode) *actionMsg {
	return &actionMsg{
		act: &xct.Action{Mode: mode, Ranged: true, RangeLo: lo, RangeHi: hi},
		run: &flowRun{txn: tx.Txn{ID: txn}},
	}
}

func TestHierIntentShareKeyExclude(t *testing.T) {
	lt := newHierLockTable(-1)
	if !lt.acquire(hierPoint(1, 10, xct.Write)) {
		t.Fatal("writer refused on free key")
	}
	// Another writer in the same granule: intents are compatible, only
	// the key nodes exclude.
	if !lt.acquire(hierPoint(2, 11, xct.Write)) {
		t.Fatal("sibling-key writer refused (intents must share)")
	}
	if lt.acquire(hierPoint(3, 10, xct.Read)) {
		t.Fatal("reader admitted on a write-held key")
	}
	// Same transaction re-acquires freely.
	if !lt.acquire(hierPoint(1, 10, xct.Read)) {
		t.Fatal("same-txn re-acquire refused")
	}
	if lt.keyNodes != 2 {
		t.Fatalf("keyNodes = %d, want 2", lt.keyNodes)
	}
}

func TestHierRangeLockCoarse(t *testing.T) {
	lt := newHierLockTable(-1)
	// [0, 300] spans two granules: two coarse S grants, no key nodes.
	if !lt.acquire(hierRange(1, 0, 300, xct.Read)) {
		t.Fatal("range S refused on empty table")
	}
	if lt.stats.rangeLocks != 2 {
		t.Fatalf("rangeLocks = %d, want 2", lt.stats.rangeLocks)
	}
	if lt.keyNodes != 0 {
		t.Fatalf("range scan created %d key nodes", lt.keyNodes)
	}
	// A writer under the covered granule blocks at the granule; a reader
	// passes (IS is compatible with S).
	if lt.acquire(hierPoint(2, 10, xct.Write)) {
		t.Fatal("writer admitted under range S")
	}
	if !lt.acquire(hierPoint(3, 10, xct.Read)) {
		t.Fatal("reader refused under range S")
	}
	// The scan's cover is pinned: a conflicting acquire must not
	// de-escalate it.
	if lt.stats.deescalations != 0 {
		t.Fatalf("range cover yielded: deescalations = %d", lt.stats.deescalations)
	}
}

func TestHierRangeSpansRoot(t *testing.T) {
	lt := newHierLockTable(-1)
	hi := int64(rootSpanGranules+1) << granuleBits
	if !lt.acquire(hierRange(1, 0, hi, xct.Write)) {
		t.Fatal("wide range X refused on empty table")
	}
	if i := lt.root.holdOf(1); i < 0 || lt.root.holders[i].mode != xct.LockX {
		t.Fatal("wide range did not take a partition-level X")
	}
	if len(lt.granules) != 0 {
		t.Fatalf("wide range locked %d granules, want root only", len(lt.granules))
	}
	if lt.acquire(hierPoint(2, 5, xct.Read)) {
		t.Fatal("reader admitted under root X")
	}
	if !lt.keyBusy(12345) || !lt.rangeBusy(0, 10) {
		t.Fatal("busy probes missed the root lock")
	}
	if lt.heldKeys() != 1 {
		t.Fatalf("heldKeys = %d, want 1 (the root summary)", lt.heldKeys())
	}
}

func TestHierEscalation(t *testing.T) {
	lt := newHierLockTable(4)
	for k := int64(0); k < 4; k++ {
		if !lt.acquire(hierPoint(1, k, xct.Write)) {
			t.Fatalf("write %d refused", k)
		}
	}
	if lt.stats.escalations != 1 {
		t.Fatalf("escalations = %d, want 1", lt.stats.escalations)
	}
	if lt.keyNodes != 0 {
		t.Fatalf("key holds not folded: keyNodes = %d", lt.keyNodes)
	}
	g := lt.granules[0]
	if i := g.node.holdOf(1); i < 0 || g.node.holders[i].mode != xct.LockX {
		t.Fatal("escalated granule hold is not X")
	}
	// Further keys ride the coarse hold: one probe, no new nodes.
	a0 := lt.stats.acquisitions
	if !lt.acquire(hierPoint(1, 7, xct.Write)) {
		t.Fatal("covered acquire refused")
	}
	if got := lt.stats.acquisitions - a0; got != 1 {
		t.Fatalf("covered acquire cost %d grant ops, want 1", got)
	}
	// Release counts the de-escalation and empties the table.
	_ = lt.release(1)
	if lt.stats.deescalations != 1 {
		t.Fatalf("deescalations = %d, want 1", lt.stats.deescalations)
	}
	if lt.heldKeys() != 0 || lt.keyNodes != 0 || len(lt.granules) != 0 {
		t.Fatalf("state leaked: heldKeys=%d keyNodes=%d granules=%d",
			lt.heldKeys(), lt.keyNodes, len(lt.granules))
	}
}

func TestHierConflictDeescalation(t *testing.T) {
	lt := newHierLockTable(4)
	for k := int64(0); k < 4; k++ {
		lt.acquire(hierPoint(1, k, xct.Write))
	}
	if lt.stats.escalations != 1 {
		t.Fatalf("escalations = %d, want 1", lt.stats.escalations)
	}
	// A conflicting writer on an UNTOUCHED key in the granule: the
	// escalated hold yields back to key granularity instead of blocking
	// the whole granule.
	if !lt.acquire(hierPoint(2, 9, xct.Write)) {
		t.Fatal("conflict did not de-escalate the coarse hold")
	}
	if lt.stats.deescalations != 1 {
		t.Fatalf("deescalations = %d, want 1", lt.stats.deescalations)
	}
	// The holder's key locks are back, at the escalated (conservative)
	// mode.
	if lt.acquire(hierPoint(3, 2, xct.Write)) {
		t.Fatal("materialized key hold missing after de-escalation")
	}
	// And the backoff suppresses the next escalation trigger.
	if lt.escSuppress == 0 {
		t.Fatal("conflict de-escalation did not arm the backoff")
	}
	for k := int64(512); k < 516; k++ {
		lt.acquire(hierPoint(2, k, xct.Write))
	}
	if lt.stats.escalations != 1 {
		t.Fatal("escalation not suppressed after a conflict de-escalation")
	}
}

func TestHierExtractAdopt(t *testing.T) {
	lt := newHierLockTable(-1)
	lt.acquire(hierPoint(1, 10, xct.Write))
	lt.acquire(hierPoint(2, 600, xct.Write))
	w := hierPoint(3, 600, xct.Write)
	if lt.acquire(w) {
		t.Fatal("conflicting writer granted")
	}
	lt.wait(w)
	moved := lt.extractAbove(512)
	if moved.granules[granuleOf(600)] == nil {
		t.Fatal("high granule state not extracted")
	}
	if lt.keyNodes != 1 {
		t.Fatalf("keyNodes after extract = %d, want 1", lt.keyNodes)
	}
	if lt.waiting != 0 {
		t.Fatalf("waiting after extract = %d, want 0 (waiter travels)", lt.waiting)
	}

	dst := newHierLockTable(-1)
	if got := dst.adopt(moved); len(got) != 0 {
		t.Fatal("waiter granted while its blocker still holds")
	}
	if dst.waiting != 1 || dst.keyNodes != 1 {
		t.Fatalf("adopted waiting=%d keyNodes=%d, want 1/1", dst.waiting, dst.keyNodes)
	}
	got := dst.release(2)
	if len(got) != 1 || got[0] != w {
		t.Fatal("adopted waiter not granted on the blocker's release")
	}
}

// TestHierKeyNodesInvariant cross-checks the O(1) heldKeys counter
// against a recount through escalation, conflict de-escalation, release
// and migration — the operations that mutate key nodes.
func TestHierKeyNodesInvariant(t *testing.T) {
	recount := func(lt *hierLockTable) int {
		n := 0
		for _, g := range lt.granules {
			n += len(g.keys)
		}
		return n
	}
	check := func(lt *hierLockTable, step string) {
		t.Helper()
		if lt.keyNodes != recount(lt) {
			t.Fatalf("%s: keyNodes = %d, recount = %d", step, lt.keyNodes, recount(lt))
		}
	}
	lt := newHierLockTable(3)
	for k := int64(0); k < 3; k++ { // escalates
		lt.acquire(hierPoint(1, k, xct.Write))
	}
	check(lt, "escalate")
	lt.acquire(hierPoint(2, 9, xct.Write)) // conflict de-escalation
	check(lt, "deescalate")
	lt.acquire(hierPoint(2, 300, xct.Read))
	lt.acquire(hierPoint(1, 600, xct.Write))
	check(lt, "spread")
	_ = lt.release(1)
	check(lt, "release")
	mv := lt.extractAbove(256)
	check(lt, "extractAbove")
	dst := newHierLockTable(3)
	_ = dst.adopt(mv)
	check(dst, "adopt")
	_ = lt.extractAll()
	if lt.keyNodes != 0 {
		t.Fatalf("extractAll left keyNodes = %d", lt.keyNodes)
	}
}
