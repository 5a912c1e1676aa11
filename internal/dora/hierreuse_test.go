package dora

import (
	"math/rand"
	"testing"

	"dora/internal/xct"
)

// TestHierLockReuseHygiene drives two lock tables through a seeded
// random mix of point and range acquires (claims and actions), parks,
// escalations and conflict de-escalations, releases, timeout sweeps and
// split/merge hand-overs (extractAbove/extractAll → adopt), and checks
// after every step that the free lists never hold a node the hierarchy
// (or state in flight between the tables) can still reach, that every
// recycled node is empty, and that the O(1) counters match the
// hierarchy. Once every transaction is released both tables must be
// empty.
func TestHierLockReuseHygiene(t *testing.T) {
	var esc, deesc int64
	for seed := int64(1); seed <= 8; seed++ {
		st := runReuseHygiene(t, seed, 3000)
		esc, deesc = esc+st.escalations, deesc+st.deescalations
	}
	// The mix must keep exercising the paths that reshape key nodes.
	if esc == 0 || deesc == 0 {
		t.Fatalf("mix ran %d escalations, %d de-escalations; want both", esc, deesc)
	}
}

// TestHierLockReuseBounded: a wide transaction (100 keys in one
// granule, one key in each of 40 more), a 40-deep waiter queue and a
// 40-holder key leave nothing larger than lockReuseCap in the free
// lists once released, while the small nodes around them are still
// recycled.
func TestHierLockReuseBounded(t *testing.T) {
	lt := newHierLockTable(-1) // no escalation: every key keeps its node
	const wide, readers = 100, 40
	hotRead, hotWait := int64(200)<<granuleBits, int64(300)<<granuleBits
	if !lt.acquire(hierPoint(1, hotWait, xct.Write)) {
		t.Fatal("wide writer refused the contended key")
	}
	for k := int64(0); k < wide; k++ {
		if !lt.acquire(hierPoint(1, k, xct.Write)) {
			t.Fatalf("wide writer refused key %d", k)
		}
	}
	for g := int64(1); g <= readers; g++ {
		if !lt.acquire(hierPoint(1, g<<granuleBits, xct.Write)) {
			t.Fatalf("wide writer refused granule %d", g)
		}
	}
	for txn := uint64(2); txn < 2+readers; txn++ {
		if !lt.acquire(hierPoint(txn, hotRead, xct.Read)) {
			t.Fatalf("reader %d refused the shared key", txn)
		}
		if am := hierPoint(txn, hotWait, xct.Read); !lt.acquire(am) {
			lt.wait(am)
		}
	}
	wideTxn := lt.byTxn[1]
	if lt.waiting != readers {
		t.Fatalf("%d waiters parked, want %d", lt.waiting, readers)
	}
	if granted := lt.release(1); len(granted) != readers {
		t.Fatalf("release granted %d waiters, want %d", len(granted), readers)
	}
	for txn := uint64(2); txn < 2+readers; txn++ {
		lt.release(txn)
	}
	if len(lt.granules) != 0 || lt.keyNodes != 0 || lt.waiting != 0 || len(lt.byTxn) != 0 {
		t.Fatalf("table not empty: granules=%d keyNodes=%d waiting=%d txns=%d",
			len(lt.granules), lt.keyNodes, lt.waiting, len(lt.byTxn))
	}
	if len(lt.freeNodes) == 0 || len(lt.freeGrans) == 0 || len(lt.freeTxns) == 0 {
		t.Fatalf("small entries not recycled: %d nodes, %d indexes", len(lt.freeNodes), len(lt.freeTxns))
	}
	fail := func(format string, args ...any) { t.Fatalf(format, args...) }
	for _, kn := range lt.freeNodes {
		emptyPooled(fail, 0, kn)
	}
	for _, g := range lt.freeGrans {
		if g.wide {
			t.Fatal("a granule that held more than lockReuseCap keys was recycled")
		}
		emptyPooled(fail, 0, &g.node)
	}
	for _, th := range lt.freeTxns {
		if th == wideTxn && th.grans != nil {
			t.Fatal("the wide transaction's index kept its granule map")
		}
		if cap(th.first.keys) > lockReuseCap || len(th.spare) > lockReuseCap {
			t.Fatalf("a recycled index keeps %d key slots, %d spare granule entries", cap(th.first.keys), len(th.spare))
		}
		for _, tg := range th.spare {
			if cap(tg.keys) > lockReuseCap {
				t.Fatalf("a recycled granule entry keeps %d key slots", cap(tg.keys))
			}
		}
	}
}

// reuseRig is the hygiene test's model: the tables and which actions of
// which transactions are parked.
type reuseRig struct {
	t      *testing.T
	rng    *rand.Rand
	lts    [2]*hierLockTable
	active []uint64
	parked map[*actionMsg]bool
	next   uint64
}

// runReuseHygiene runs one seed and returns both tables' summed lock
// accounting.
func runReuseHygiene(t *testing.T, seed int64, steps int) lockStats {
	r := &reuseRig{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		lts:    [2]*hierLockTable{newHierLockTable(3), newHierLockTable(3)},
		parked: make(map[*actionMsg]bool),
		next:   1,
	}
	for step := 0; step < steps; step++ {
		var inFlight *hierMoved
		switch op := r.rng.Intn(100); {
		case op < 45:
			r.request(false)
		case op < 55:
			r.request(true)
		case op < 80:
			r.releaseOne()
		case op < 85:
			r.sweep(func(w *actionMsg) bool { return r.rng.Intn(4) != 0 })
		case op < 95:
			src := r.rng.Intn(2)
			inFlight = r.lts[src].extractAbove(int64(r.rng.Intn(6)) << granuleBits)
			r.check(seed, step, inFlight)
			r.granted(r.lts[1-src].adopt(inFlight))
		default:
			src := r.rng.Intn(2)
			inFlight = r.lts[src].extractAll()
			r.check(seed, step, inFlight)
			r.granted(r.lts[1-src].adopt(inFlight))
		}
		r.check(seed, step, nil)
		if inFlight != nil {
			r.movedNotPooled(seed, step, inFlight)
		}
	}
	// Drain: time every parked action out, then release everyone.
	r.sweep(func(*actionMsg) bool { return false })
	for len(r.active) > 0 {
		r.releaseTxn(r.active[0])
	}
	r.check(seed, steps, nil)
	var st lockStats
	for i, lt := range r.lts {
		st.escalations += lt.stats.escalations
		st.deescalations += lt.stats.deescalations
		if len(lt.granules) != 0 || lt.keyNodes != 0 || lt.waiting != 0 || len(lt.byTxn) != 0 || !lt.root.empty() {
			t.Fatalf("seed %d: table %d not empty after releasing everything: granules=%d keyNodes=%d waiting=%d txns=%d root=%v",
				seed, i, len(lt.granules), lt.keyNodes, lt.waiting, len(lt.byTxn), lt.root)
		}
	}
	return st
}

// txn picks an active transaction, or starts one.
func (r *reuseRig) txn() uint64 {
	if len(r.active) == 0 || (len(r.active) < 6 && r.rng.Intn(3) == 0) {
		r.active = append(r.active, r.next)
		r.next++
	}
	return r.active[r.rng.Intn(len(r.active))]
}

// hotKey draws from 16 hot keys in each of six granules, so requests
// conflict, escalate and de-escalate often.
func (r *reuseRig) hotKey() int64 {
	return int64(r.rng.Intn(6))<<granuleBits + int64(r.rng.Intn(16))
}

// request asks one table for a point (or ranged) lock, parking it when
// refused.
func (r *reuseRig) request(ranged bool) {
	txn := r.txn()
	mode := xct.Read
	if r.rng.Intn(3) == 0 {
		mode = xct.Write
	}
	var am *actionMsg
	if ranged {
		lo := r.hotKey()
		hi := lo + int64(r.rng.Intn(2<<granuleBits))
		if r.rng.Intn(10) == 0 {
			hi = lo + (rootSpanGranules+1)<<granuleBits
		}
		am = hierRange(txn, lo, hi, mode)
		am.routeKey = lo
	} else {
		am = hierPoint(txn, r.hotKey(), mode)
	}
	am.claim = r.rng.Intn(2) == 0
	lt := r.lts[r.rng.Intn(2)]
	if !lt.acquire(am) {
		lt.wait(am)
		r.parked[am] = true
	}
}

// releaseOne releases a random transaction that has no parked action
// (a transaction commits only after all of its actions ran; its parked
// claims are dropped by the release).
func (r *reuseRig) releaseOne() {
	for _, i := range r.rng.Perm(len(r.active)) {
		if !r.hasParkedAction(r.active[i]) {
			r.releaseTxn(r.active[i])
			return
		}
	}
}

func (r *reuseRig) hasParkedAction(txn uint64) bool {
	for am := range r.parked {
		if am.run.txn.ID == txn && !am.claim {
			return true
		}
	}
	return false
}

// releaseTxn broadcasts txn's release to both tables.
func (r *reuseRig) releaseTxn(txn uint64) {
	for am := range r.parked {
		if am.run.txn.ID == txn {
			delete(r.parked, am)
		}
	}
	for _, lt := range r.lts {
		r.granted(lt.release(txn))
	}
	for i, id := range r.active {
		if id == txn {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
}

func (r *reuseRig) granted(runnable []*actionMsg) {
	for _, am := range runnable {
		if !r.parked[am] {
			r.t.Fatalf("granted an action that was not parked (txn %d)", am.run.txn.ID)
		}
		delete(r.parked, am)
	}
}

// sweep runs the timeout sweep on both tables; judge false drops a
// waiter.
func (r *reuseRig) sweep(judge func(*actionMsg) bool) {
	for _, lt := range r.lts {
		lt.sweepWaiters(func(w *actionMsg) bool {
			if judge(w) {
				return true
			}
			delete(r.parked, w)
			return false
		})
	}
}

// check verifies both tables' counters and free lists. inFlight is
// hand-over state between the tables, or nil.
func (r *reuseRig) check(seed int64, step int, inFlight *hierMoved) {
	t := r.t
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	// Every node the hierarchies or the in-flight state can reach.
	reach := make(map[*hnode]bool)
	grans := make(map[*granule]bool)
	waiting := 0
	for i, lt := range r.lts {
		keys, waits := 0, len(lt.root.waiters)
		reach[&lt.root] = true
		for _, g := range lt.granules {
			grans[g] = true
			reach[&g.node] = true
			keys += len(g.keys)
			waits += len(g.node.waiters)
			for _, kn := range g.keys {
				reach[kn] = true
				waits += len(kn.waiters)
			}
		}
		if keys != lt.keyNodes {
			fail("table %d: keyNodes=%d, granules hold %d key nodes", i, lt.keyNodes, keys)
		}
		if waits != lt.waiting {
			fail("table %d: waiting=%d, nodes hold %d waiters", i, lt.waiting, waits)
		}
		waiting += waits
	}
	if inFlight != nil {
		waiting += len(inFlight.root.waiters)
		for _, mg := range inFlight.granules {
			waiting += len(mg.node.waiters)
			for _, kn := range mg.keys {
				reach[kn] = true
				waiting += len(kn.waiters)
			}
		}
	}
	if waiting != len(r.parked) {
		fail("%d waiters parked across the tables, model has %d", waiting, len(r.parked))
	}
	pooled := make(map[*hnode]bool)
	for i, lt := range r.lts {
		if len(lt.freeNodes) > lockFreeCap || len(lt.freeGrans) > lockFreeCap || len(lt.freeTxns) > lockFreeCap {
			fail("table %d: free list over its cap", i)
		}
		for _, kn := range lt.freeNodes {
			if reach[kn] {
				fail("table %d: pooled key node still reachable", i)
			}
			if pooled[kn] {
				fail("table %d: key node pooled twice", i)
			}
			pooled[kn] = true
			emptyPooled(fail, i, kn)
		}
		for _, g := range lt.freeGrans {
			if grans[g] || reach[&g.node] {
				fail("table %d: pooled granule still reachable", i)
			}
			if g.lt != lt || len(g.keys) != 0 || g.wide {
				fail("table %d: pooled granule not reset", i)
			}
			emptyPooled(fail, i, &g.node)
		}
		live := make(map[*txnLocks]bool, len(lt.byTxn))
		for _, th := range lt.byTxn {
			live[th] = true
		}
		for _, th := range lt.freeTxns {
			if live[th] {
				fail("table %d: pooled transaction index still indexed", i)
			}
			if th.hasFirst || th.last != nil || th.rootMode != xct.LockNone || len(th.grans) != 0 || len(th.first.keys) != 0 {
				fail("table %d: pooled transaction index not reset", i)
			}
			if cap(th.first.keys) > lockReuseCap || len(th.spare) > lockReuseCap {
				fail("table %d: pooled transaction index keeps more than lockReuseCap", i)
			}
			for _, tg := range th.spare {
				if cap(tg.keys) > lockReuseCap {
					fail("table %d: pooled txnGran keeps %d key slots", i, cap(tg.keys))
				}
			}
		}
	}
	// No two nodes, live or pooled, may share a backing array: a reused
	// slice aliased by a live node would corrupt it on the next append.
	arrays := make(map[any]*hnode)
	for n := range reach {
		sharedArrays(fail, arrays, n)
	}
	for n := range pooled {
		sharedArrays(fail, arrays, n)
	}
}

// movedNotPooled: nodes that travelled in a hand-over are garbage once
// adopted (the adopter merges them into its own nodes); neither table
// may have recycled them.
func (r *reuseRig) movedNotPooled(seed int64, step int, mv *hierMoved) {
	for _, lt := range r.lts {
		for _, kn := range lt.freeNodes {
			for _, mg := range mv.granules {
				for _, moved := range mg.keys {
					if kn == moved {
						r.t.Fatalf("seed %d step %d: a handed-over key node was recycled", seed, step)
					}
				}
			}
		}
	}
}

func emptyPooled(fail func(string, ...any), table int, n *hnode) {
	if len(n.holders) != 0 || len(n.waiters) != 0 {
		fail("table %d: pooled node has %d holders, %d waiters", table, len(n.holders), len(n.waiters))
	}
	if !n.reusable() {
		fail("table %d: pooled node keeps %d holder and %d waiter slots", table, cap(n.holders), cap(n.waiters))
	}
	for _, w := range n.waiters[:cap(n.waiters)] {
		if w != nil {
			fail("table %d: pooled node keeps a retired waiter reachable", table)
		}
	}
}

func sharedArrays(fail func(string, ...any), seen map[any]*hnode, n *hnode) {
	if cap(n.holders) > 0 {
		p := &n.holders[:1][0]
		if o, dup := seen[p]; dup && o != n {
			fail("two nodes share a holders array")
		}
		seen[p] = n
	}
	if cap(n.waiters) > 0 {
		p := &n.waiters[:1][0]
		if o, dup := seen[p]; dup && o != n {
			fail("two nodes share a waiters array")
		}
		seen[p] = n
	}
}
