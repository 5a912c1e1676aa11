package dora

import (
	"slices"

	"dora/internal/xct"
)

// hierLockTable is the multigranularity local lock table: a three-level
// hierarchy, partition root → granule (a 2^granuleBits-wide interval of
// routing values) → key, with the standard IS/IX/S/SIX/X modes. It is
// still partition-private and latch-free on the owner thread — plain
// maps and slices, no mutexes: the owning worker is the only toucher,
// exactly the paper's thread-private invariant. What the hierarchy buys:
//
//   - Range scans take one S lock per spanned granule (or a single
//     partition-level S when the span is wide) instead of a lock per
//     key — O(keys) acquisitions become O(1).
//   - Whole-partition operations (maintenance ships, CompactOwned,
//     evacuation gating) answer "is anything in this range locked?"
//     from the granule summaries instead of sweeping per-key entries.
//   - Per-transaction lock escalation: when a transaction accumulates
//     escalateAt key locks under one granule, they fold into a single
//     coarse S/X hold there, absorbing zipfian hot-key storms.
//
// Protocol notes:
//
//   - A point acquire takes IS/IX intents at the root and granule, then
//     S/X at the key. The per-transaction granule cache (txnLocks.last)
//     makes the steady-state re-acquire under a coarse hold ~1 map
//     probe.
//   - Granule-level range locks over-cover: the edge granules of an
//     interval are locked whole. Conservative, never incorrect — an
//     extra writer may wait that strictly need not.
//   - Grants never overtake a conflicting parked waiter at the same
//     node (FIFO fairness per node). A promoted waiter that is still
//     blocked re-parks at whichever level blocks it now, so cross-node
//     ordering is approximate.
//   - Blocked requests keep their partial grants (intents, range
//     prefixes); the transaction's release drops them. That guarantees
//     that every blocker's release re-triggers promotion at the nodes it
//     held.
//
// Allocation discipline: the per-transaction index (txnLocks), granules
// and key nodes are recycled through bounded free lists, so a warmed
// table grants and releases point locks without allocating. Only the
// owning worker touches the lists — they are as thread-private as the
// table itself. A node enters a list only when it is unreachable from
// the hierarchy: release, dropKey and dropEmptyGranule recycle; state
// handed to another partition (hierMoved) is never recycled by its
// source, and the node being promoted from is never recycled while the
// promotion loop still reads it.
type hierLockTable struct {
	root     hnode
	granules map[int64]*granule
	byTxn    map[uint64]*txnLocks
	waiting  int
	// escalateAt is the per-(txn, granule) key-lock count that triggers
	// escalation; <= 0 disables.
	escalateAt int
	// promotingFrom is the node whose popped queue head is being
	// re-granted: the waiters still queued there are all BEHIND it, and
	// the no-overtake rule only defers to waiters ahead — without this
	// exemption two conflicting waiters would veto each other forever.
	promotingFrom *hnode
	// escSuppress is the adaptive-escalation backoff: each conflict-
	// triggered de-escalation adds escSuppressPenalty (escalation clearly
	// is not paying off), and every suppressed escalation attempt decays
	// it by one. Under a sustained hot-key storm the table converges to
	// fine-grained locking; conflict-free workloads keep escalating.
	escSuppress int
	// keyNodes counts live key nodes across all granules (heldKeys).
	keyNodes int
	stats    lockStats

	// Free lists (at most lockFreeCap entries each) and the scratch
	// release and promote reuse between calls (adoption, rare and
	// possibly wide, allocates its own set so the reused one stays
	// small).
	freeTxns  []*txnLocks
	freeGrans []*granule
	freeNodes []*hnode
	affected  map[int64]bool
	gids, ks  []int64
}

// lockFreeCap bounds the entry count of each free list: enough for the
// steady state of a worker with a few hundred transactions in flight.
const lockFreeCap = 256

// lockReuseCap bounds what a recycled entry keeps: a holders, waiters or
// key slice, or a granule or key map, that grew past this many entries
// is dropped rather than recycled (a cleared map never shrinks), so one
// wide transaction or long waiter queue cannot pin its backing store in
// a free list. Together with lockFreeCap it bounds a table's free-list
// memory.
const lockReuseCap = 2 * defaultEscalateAt

// granuleBits sizes a granule at 2^granuleBits routing values.
const granuleBits = 8

// rootSpanGranules is the span, in granules, past which a ranged action
// takes one partition-level lock instead of per-granule locks.
const rootSpanGranules = 64

// defaultEscalateAt is the escalation threshold when Config.EscalateAt
// is zero.
const defaultEscalateAt = 16

// escSuppressPenalty/escSuppressMax shape the adaptive-escalation
// backoff: one conflict-forced de-escalation suppresses the next
// escSuppressPenalty escalation attempts, capped so a burst of conflicts
// cannot disable escalation for long after the conflict pattern ends.
const (
	escSuppressPenalty = 64
	escSuppressMax     = 4 * escSuppressPenalty
)

// hnode is one hierarchy node: granted holds plus a FIFO waiter queue.
type hnode struct {
	holders []llHold
	waiters []*actionMsg
}

// granule is one key-range node plus the key nodes under it.
type granule struct {
	node hnode
	keys map[int64]*hnode
	// lt is the owning table: key()/dropKey draw nodes from and return
	// them to its free list, and maintain its key-node counter so the
	// heldKeys gauge (mirrored after every batch) stays O(1) instead of
	// summing per-granule map sizes.
	lt *hierLockTable
	// wide marks that keys grew past lockReuseCap: the granule is not
	// recycled.
	wide bool
}

// txnGran tracks one transaction's state under one granule.
type txnGran struct {
	// mode is the transaction's hold at the granule node (LockNone when
	// it only holds key locks... never: key locks imply an intent here).
	mode xct.LockMode
	// keys lists the keys the transaction locked under the granule. With
	// key-level holds it is the release list; after escalation it keeps
	// accumulating (including keys granted under the coarse cover) as
	// the materialization list for conflict-triggered de-escalation.
	keys []int64
	// escalated marks that keys were folded into a coarse hold.
	escalated bool
	// intent is the lub of the intents the transaction needed here —
	// what the granule hold reverts to on de-escalation.
	intent xct.LockMode
	// escMode is the coarse mode escalation took (S or X): keys
	// materialize at this (conservative) mode on de-escalation.
	escMode xct.LockMode
	// pinned marks coverage a ranged action relied on; de-escalation
	// must not strip it (the scan took no per-key locks).
	pinned bool
	// noEscalate is set when a conflict de-escalated this granule, so
	// the key-count trigger does not thrash escalate/de-escalate.
	noEscalate bool
}

// txnLocks is the per-transaction index over the hierarchy: O(held)
// release, and the fast-path cache for repeat acquires.
type txnLocks struct {
	rootMode xct.LockMode
	// first inlines the first granule the transaction touches — most
	// transactions never touch a second, and the inline slot spares the
	// short-transaction hot path both the grans map and the txnGran
	// allocation. grans stays nil until a second granule appears.
	firstID  int64
	hasFirst bool
	first    txnGran
	grans    map[int64]*txnGran
	// lastID/last cache the most recently touched granule, so the hot
	// path of a transaction working inside one granule is a single
	// byTxn probe plus a coverage check.
	lastID int64
	last   *txnGran
	// spare keeps the txnGrans of a recycled index for reuse (at most
	// rootSpanGranules: wider ranges lock the root instead).
	spare []*txnGran
}

// hierMoved is lock state in flight between partitions (split/merge).
type hierMoved struct {
	root     hnode
	granules map[int64]*hierGranMoved
}

// hierGranMoved is one migrated granule's state.
type hierGranMoved struct {
	node hnode
	keys map[int64]*hnode
}

func newHierLockTable(escalateAt int) *hierLockTable {
	if escalateAt == 0 {
		escalateAt = defaultEscalateAt
	}
	return &hierLockTable{
		granules:   make(map[int64]*granule),
		byTxn:      make(map[uint64]*txnLocks),
		escalateAt: escalateAt,
		affected:   make(map[int64]bool),
	}
}

func granuleOf(key int64) int64 { return key >> granuleBits }

// rangeSpansRoot reports whether a ranged action is wide enough to take
// a partition-level lock instead of per-granule locks.
func rangeSpansRoot(a *xct.Action) bool {
	return granuleOf(a.RangeHi)-granuleOf(a.RangeLo)+1 > rootSpanGranules
}

func (n *hnode) holdOf(txn uint64) int {
	for i, h := range n.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

func (n *hnode) removeHold(txn uint64) {
	for i := 0; i < len(n.holders); {
		if n.holders[i].txn == txn {
			n.holders = append(n.holders[:i], n.holders[i+1:]...)
		} else {
			i++
		}
	}
}

// mergeHold folds an adopted hold in: lub with an existing hold of the
// same transaction (adoption may duplicate coarse holds), else append.
func (n *hnode) mergeHold(h llHold) {
	if i := n.holdOf(h.txn); i >= 0 {
		n.holders[i].mode = xct.LockLub(n.holders[i].mode, h.mode)
		return
	}
	n.holders = append(n.holders, h)
}

func (n *hnode) empty() bool { return len(n.holders) == 0 && len(n.waiters) == 0 }

// reusable reports whether an unreachable node is small enough to
// recycle (see lockReuseCap).
func (n *hnode) reusable() bool {
	return cap(n.holders) <= lockReuseCap && cap(n.waiters) <= lockReuseCap
}

// reset empties an unreachable node for reuse, keeping the capacity of
// both slices (the waiter slots are cleared so no retired action stays
// reachable from a free list).
func (n *hnode) reset() {
	clear(n.waiters[:cap(n.waiters)])
	n.holders, n.waiters = n.holders[:0], n.waiters[:0]
}

// waiterWant is the mode a parked waiter needs at its park node: the
// full lock at the level its request targets, the intent above it.
func waiterWant(w *actionMsg) xct.LockMode {
	if w.act.Ranged {
		switch w.wnLevel {
		case wnGranule:
			return w.act.Mode.LockFor()
		case wnRoot:
			if rangeSpansRoot(w.act) {
				return w.act.Mode.LockFor()
			}
			return w.act.Mode.IntentFor()
		}
		return w.act.Mode.LockFor()
	}
	if w.wnLevel == wnKey {
		return w.act.Mode.LockFor()
	}
	return w.act.Mode.IntentFor()
}

// allows reports whether (txn, want) can be granted at n: compatible
// with every other transaction's hold, and not overtaking any parked
// waiter it conflicts with (FIFO per node). self is skipped so a
// promotion re-attempt does not block on its own queue entry, and the
// waiter check is skipped entirely at the node the requester is being
// promoted FROM — everyone still queued there is behind it.
func (lt *hierLockTable) allows(n *hnode, txn uint64, want xct.LockMode, self *actionMsg) bool {
	for _, h := range n.holders {
		if h.txn != txn && !xct.LockCompatible(h.mode, want) {
			return false
		}
	}
	if n == lt.promotingFrom {
		return true
	}
	for _, w := range n.waiters {
		if w == self || w.run.txn.ID == txn {
			continue
		}
		if !xct.LockCompatible(waiterWant(w), want) {
			return false
		}
	}
	return true
}

// allowsHolders is allows without the waiter check — escalation treats
// the queue like a same-transaction upgrade does.
func (n *hnode) allowsHolders(txn uint64, want xct.LockMode) bool {
	for _, h := range n.holders {
		if h.txn != txn && !xct.LockCompatible(h.mode, want) {
			return false
		}
	}
	return true
}

// ensureHold grants (txn, want) at n, lubbing an existing hold of the
// same transaction. isNew reports a hold appearing where none was.
func (lt *hierLockTable) ensureHold(n *hnode, txn uint64, want xct.LockMode, self *actionMsg) (granted, isNew bool) {
	lt.stats.acquisitions++
	if i := n.holdOf(txn); i >= 0 {
		held := n.holders[i].mode
		if xct.LockCovers(held, want) {
			return true, false
		}
		up := xct.LockLub(held, want)
		if !lt.allows(n, txn, up, self) {
			return false, false
		}
		n.holders[i].mode = up
		return true, false
	}
	if !lt.allows(n, txn, want, self) {
		return false, false
	}
	n.holders = append(n.holders, llHold{txn: txn, mode: want})
	return true, true
}

func (lt *hierLockTable) granule(gid int64) *granule {
	g := lt.granules[gid]
	if g == nil {
		if g = popFree(&lt.freeGrans); g == nil {
			g = &granule{keys: make(map[int64]*hnode), lt: lt}
		}
		lt.granules[gid] = g
	}
	return g
}

func (g *granule) key(k int64) *hnode {
	kn := g.keys[k]
	if kn == nil {
		if kn = popFree(&g.lt.freeNodes); kn == nil {
			kn = &hnode{}
		}
		g.keys[k] = kn
		g.lt.keyNodes++
		if len(g.keys) > lockReuseCap {
			g.wide = true
		}
	}
	return kn
}

// dropKey removes an empty key node and recycles it.
func (g *granule) dropKey(k int64) {
	kn := g.keys[k]
	g.detachKey(k)
	lt := g.lt
	if kn != lt.promotingFrom && kn.reusable() && len(lt.freeNodes) < lockFreeCap {
		kn.reset()
		lt.freeNodes = append(lt.freeNodes, kn)
	}
}

// detachKey removes a key node without recycling it (it moves to
// another partition).
func (g *granule) detachKey(k int64) {
	delete(g.keys, k)
	g.lt.keyNodes--
}

func (lt *hierLockTable) txnOf(txn uint64) *txnLocks {
	th := lt.byTxn[txn]
	if th == nil {
		if th = popFree(&lt.freeTxns); th == nil {
			th = &txnLocks{}
		}
		lt.byTxn[txn] = th
	}
	return th
}

// popFree takes the last entry off a free list; nil when it is empty.
func popFree[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	x := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return x
}

// recycleTxn returns a released transaction's index to the free list,
// keeping its key-list capacities and its (cleared) granule map, each
// only up to lockReuseCap.
func (lt *hierLockTable) recycleTxn(th *txnLocks) {
	if len(lt.freeTxns) >= lockFreeCap {
		return
	}
	keys, grans, spare := reuseKeys(th.first.keys), th.grans, th.spare
	for _, tg := range grans {
		if len(spare) < lockReuseCap {
			*tg = txnGran{keys: reuseKeys(tg.keys)}
			spare = append(spare, tg)
		}
	}
	if len(grans) > lockReuseCap {
		grans = nil
	} else {
		clear(grans)
	}
	*th = txnLocks{grans: grans, spare: spare}
	th.first.keys = keys
	lt.freeTxns = append(lt.freeTxns, th)
}

// reuseKeys empties a recycled key list, dropping it when it grew past
// lockReuseCap.
func reuseKeys(keys []int64) []int64 {
	if cap(keys) > lockReuseCap {
		return nil
	}
	return keys[:0]
}

func (th *txnLocks) gran(gid int64) *txnGran {
	if th.last != nil && th.lastID == gid {
		return th.last
	}
	if !th.hasFirst {
		th.hasFirst, th.firstID = true, gid
		th.lastID, th.last = gid, &th.first
		return th.last
	}
	if th.firstID == gid {
		th.lastID, th.last = gid, &th.first
		return th.last
	}
	tg := th.grans[gid]
	if tg == nil {
		if tg = popFree(&th.spare); tg == nil {
			tg = &txnGran{}
		}
		if th.grans == nil {
			th.grans = make(map[int64]*txnGran)
		}
		th.grans[gid] = tg
	}
	th.lastID, th.last = gid, tg
	return tg
}

// granIf is gran without the create: nil when the transaction holds
// nothing under gid.
func (th *txnLocks) granIf(gid int64) *txnGran {
	if th.hasFirst && th.firstID == gid {
		return &th.first
	}
	return th.grans[gid]
}

// eachGran visits every granule the transaction has state under.
func (th *txnLocks) eachGran(f func(gid int64, tg *txnGran)) {
	if th.hasFirst {
		f(th.firstID, &th.first)
	}
	for gid, tg := range th.grans {
		f(gid, tg)
	}
}

// acquire attempts to grant am's lock (point or ranged). On failure it
// records where the request blocked (am.wnLevel/wnID) so wait can park
// the action there; partial grants (range prefixes, intents) are
// retained — the transaction's release drops them.
func (lt *hierLockTable) acquire(am *actionMsg) bool {
	if am.act.Ranged {
		return lt.acquireRange(am)
	}
	txn := am.run.txn.ID
	key := am.routeKey
	gid := granuleOf(key)
	th := lt.txnOf(txn)
	want := am.act.Mode.LockFor()
	wantI := am.act.Mode.IntentFor()

	// Fast path: a coarse hold already covers this access — either the
	// cached granule of the transaction (escalated, or range-locked
	// earlier) or a partition-level lock. One probe, no node walks.
	if th.last != nil && th.lastID == gid && xct.LockCovers(th.last.mode, want) {
		lt.stats.acquisitions++
		th.last.coveredKey(key)
		return true
	}
	if xct.LockCovers(th.rootMode, want) {
		lt.stats.acquisitions++
		return true
	}

	// Root intent.
	if !xct.LockCovers(th.rootMode, wantI) {
		granted, _ := lt.ensureHold(&lt.root, txn, wantI, am)
		if !granted {
			am.wnLevel, am.wnID = wnRoot, 0
			return false
		}
		th.rootMode = xct.LockLub(th.rootMode, wantI)
	}
	// Granule intent.
	g := lt.granule(gid)
	tg := th.gran(gid)
	if xct.LockCovers(tg.mode, want) {
		lt.stats.acquisitions++
		tg.coveredKey(key)
		return true
	}
	if !xct.LockCovers(tg.mode, wantI) {
		granted, _ := lt.ensureHold(&g.node, txn, wantI, am)
		if !granted && lt.yieldEscalated(gid, g, txn, wantI) {
			granted, _ = lt.ensureHold(&g.node, txn, wantI, am)
		}
		if !granted {
			am.wnLevel, am.wnID = wnGranule, gid
			return false
		}
		tg.mode = xct.LockLub(tg.mode, wantI)
	}
	tg.intent = xct.LockLub(tg.intent, wantI)
	// Key lock.
	kn := g.key(key)
	granted, isNew := lt.ensureHold(kn, txn, want, am)
	if !granted {
		am.wnLevel, am.wnID = wnKey, key
		return false
	}
	if isNew {
		tg.keys = append(tg.keys, key)
	}
	// Escalation: enough key locks under one granule fold into a single
	// coarse hold there.
	if lt.escalateAt > 0 && !tg.escalated && len(tg.keys) >= lt.escalateAt {
		lt.tryEscalate(txn, g, tg)
	}
	return true
}

// tryEscalate folds a transaction's key locks under g into one coarse
// granule hold: X if any key hold is exclusive, S otherwise (lubbed with
// the intents already held, so S over IX becomes SIX). Like an upgrade
// it only defers to other HOLDERS — parked waiters do not veto it —
// and failure just means the keys stay fine-grained.
func (lt *hierLockTable) tryEscalate(txn uint64, g *granule, tg *txnGran) {
	if tg.noEscalate {
		return
	}
	if lt.escSuppress > 0 {
		lt.escSuppress--
		tg.noEscalate = true // one backoff probe per (txn, granule)
		return
	}
	target := xct.LockS
	for _, k := range tg.keys {
		kn := g.keys[k]
		if kn == nil {
			continue
		}
		if i := kn.holdOf(txn); i >= 0 && kn.holders[i].mode == xct.LockX {
			target = xct.LockX
			break
		}
	}
	up := xct.LockLub(tg.mode, target)
	if !g.node.allowsHolders(txn, up) {
		return
	}
	if i := g.node.holdOf(txn); i >= 0 {
		g.node.holders[i].mode = up
	} else {
		g.node.holders = append(g.node.holders, llHold{txn: txn, mode: up})
	}
	tg.escMode = target
	tg.mode = up
	tg.escalated = true
	lt.stats.escalations++
	// The coarse hold covers everything below: drop the key-level holds.
	// Nodes keeping other holders or waiters stay; release promotes the
	// waiters under this granule when the coarse hold goes. tg.keys is
	// KEPT (and keeps accumulating) as the materialization list for
	// conflict-triggered de-escalation.
	for _, k := range tg.keys {
		kn := g.keys[k]
		if kn == nil {
			continue
		}
		kn.removeHold(txn)
		if kn.empty() {
			g.dropKey(k)
		}
	}
}

// coveredKey records a key granted under an escalated coarse hold so a
// later de-escalation can materialize it (no-op otherwise — pre-
// escalation key holds are recorded at grant, range covers never yield).
func (tg *txnGran) coveredKey(key int64) {
	if !tg.escalated {
		return
	}
	if n := len(tg.keys); n > 0 && tg.keys[n-1] == key {
		return
	}
	tg.keys = append(tg.keys, key)
}

// yieldEscalated handles a request blocked at a granule by another
// transaction's ESCALATED hold. Escalation is an optimization, so a real
// conflict reverts the holder to its exact key locks instead of leaving
// every key in the granule falsely unavailable to the requester. Reports
// whether any hold yielded; the caller then retries the grant once.
// Range-pinned covers never yield — a scan relied on them and took no
// per-key locks.
func (lt *hierLockTable) yieldEscalated(gid int64, g *granule, txn uint64, want xct.LockMode) bool {
	yielded := false
	for _, h := range g.node.holders {
		if h.txn == txn || xct.LockCompatible(h.mode, want) {
			continue
		}
		oth := lt.byTxn[h.txn]
		if oth == nil {
			continue
		}
		tg := oth.granIf(gid)
		if tg == nil || !tg.escalated || tg.pinned {
			continue
		}
		lt.deescalate(g, h.txn, tg)
		yielded = true
	}
	return yielded
}

// deescalate reverts an escalated hold to key granularity: every key in
// the materialization list comes back as a key-level hold at the
// escalated mode (conservative — a read under an X escalation returns as
// X — but safe: while the cover stood, no other transaction could hold
// an incompatible lock on any key below it, so materializing cannot
// conflict), and the granule hold drops to the accumulated intent. The
// granule is marked noEscalate so the key-count trigger does not thrash.
func (lt *hierLockTable) deescalate(g *granule, txn uint64, tg *txnGran) {
	seen := make(map[int64]struct{}, len(tg.keys))
	kept := tg.keys[:0]
	for _, k := range tg.keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		kept = append(kept, k)
		g.key(k).mergeHold(llHold{txn: txn, mode: tg.escMode})
	}
	tg.keys = kept
	if i := g.node.holdOf(txn); i >= 0 {
		g.node.holders[i].mode = tg.intent
	}
	tg.mode = tg.intent
	tg.escalated = false
	tg.noEscalate = true
	if lt.escSuppress += escSuppressPenalty; lt.escSuppress > escSuppressMax {
		lt.escSuppress = escSuppressMax
	}
	lt.stats.deescalations++
}

// acquireRange locks a ranged action: S/X per spanned granule, or one
// partition-level S/X when the span is wide. The cursor am.rangeNext
// (granule ids here) resumes a partially granted range after promotion.
// The interval is locked whole even where it extends past the
// partition's assigned ranges — over-coverage of granules no action will
// ever route here for is harmless.
func (lt *hierLockTable) acquireRange(am *actionMsg) bool {
	txn := am.run.txn.ID
	a := am.act
	want := a.Mode.LockFor()
	th := lt.txnOf(txn)
	if xct.LockCovers(th.rootMode, want) {
		lt.stats.acquisitions++
		return true
	}
	if rangeSpansRoot(a) {
		granted, _ := lt.ensureHold(&lt.root, txn, want, am)
		if !granted {
			am.wnLevel, am.wnID = wnRoot, 0
			return false
		}
		th.rootMode = xct.LockLub(th.rootMode, want)
		lt.stats.rangeLocks++
		return true
	}
	wantI := a.Mode.IntentFor()
	if !xct.LockCovers(th.rootMode, wantI) {
		granted, _ := lt.ensureHold(&lt.root, txn, wantI, am)
		if !granted {
			am.wnLevel, am.wnID = wnRoot, 0
			return false
		}
		th.rootMode = xct.LockLub(th.rootMode, wantI)
	}
	gid := granuleOf(a.RangeLo)
	if am.rangeNext > gid {
		gid = am.rangeNext
	}
	for hi := granuleOf(a.RangeHi); gid <= hi; gid++ {
		tg := th.gran(gid)
		if xct.LockCovers(tg.mode, want) {
			tg.pinned = true // the scan relies on this cover: no de-escalation
			continue
		}
		g := lt.granule(gid)
		granted, _ := lt.ensureHold(&g.node, txn, want, am)
		if !granted && lt.yieldEscalated(gid, g, txn, want) {
			granted, _ = lt.ensureHold(&g.node, txn, want, am)
		}
		if !granted {
			am.rangeNext = gid
			am.wnLevel, am.wnID = wnGranule, gid
			return false
		}
		tg.mode = xct.LockLub(tg.mode, want)
		tg.pinned = true
		lt.stats.rangeLocks++
	}
	am.rangeNext = granuleOf(a.RangeHi) + 1
	return true
}

// nodeFor resolves a park position to its node, creating it if the
// cleanup sweeps removed it meanwhile.
func (lt *hierLockTable) nodeFor(level uint8, id int64) *hnode {
	switch level {
	case wnRoot:
		return &lt.root
	case wnGranule:
		return &lt.granule(id).node
	default:
		return lt.granule(granuleOf(id)).key(id)
	}
}

// wait parks am at the node acquire blocked it on.
func (lt *hierLockTable) wait(am *actionMsg) {
	n := lt.nodeFor(am.wnLevel, am.wnID)
	n.waiters = append(n.waiters, am)
	lt.waiting++
}

// release drops every hold of txn (counting de-escalations) and its
// still-waiting claims, promotes at every node that changed, and
// garbage-collects empty granules. It returns the actions that became
// grantable (their locks are already granted).
func (lt *hierLockTable) release(txn uint64) []*actionMsg {
	th := lt.byTxn[txn]
	delete(lt.byTxn, txn)
	affected := lt.affected
	clear(affected)
	rootChanged := false
	if th != nil {
		th.eachGran(func(gid int64, tg *txnGran) {
			g := lt.granules[gid]
			if g == nil {
				return
			}
			for _, k := range tg.keys {
				if kn := g.keys[k]; kn != nil {
					kn.removeHold(txn)
					if kn.empty() {
						g.dropKey(k)
					}
				}
			}
			if tg.mode != xct.LockNone {
				g.node.removeHold(txn)
				if tg.escalated {
					lt.stats.deescalations++
				}
			}
			affected[gid] = true
		})
		if th.rootMode != xct.LockNone {
			lt.root.removeHold(txn)
			rootChanged = true
		}
		lt.recycleTxn(th)
	}
	// Claims may wait at nodes the transaction never held; sweep them
	// out wherever they parked (they block grants via the no-overtake
	// rule, so dropping one can unblock a node).
	if lt.waiting > 0 {
		lt.dropClaims(txn, affected, &rootChanged)
	}
	runnable := lt.promote(affected, rootChanged)
	for gid := range affected {
		lt.dropEmptyGranule(gid)
	}
	return runnable
}

// dropClaims removes every waiting claim of txn, marking the nodes it
// changed for promotion.
func (lt *hierLockTable) dropClaims(txn uint64, affected map[int64]bool, rootChanged *bool) {
	drop := func(n *hnode) bool {
		changed := false
		kept := n.waiters[:0]
		for _, w := range n.waiters {
			if w.claim && w.run.txn.ID == txn {
				lt.waiting--
				changed = true
				continue
			}
			kept = append(kept, w)
		}
		n.waiters = kept
		return changed
	}
	if drop(&lt.root) {
		*rootChanged = true
	}
	for gid, g := range lt.granules {
		changed := drop(&g.node)
		for k, kn := range g.keys {
			if drop(kn) {
				changed = true
				if kn.empty() {
					g.dropKey(k)
				}
			}
		}
		if changed {
			affected[gid] = true
		}
	}
}

// promote re-attempts waiters at the root (when its holds changed) and
// at every affected granule — the granule node and each key node under
// it that has waiters. A granule-node release can unblock key waiters
// that parked before an escalation consumed their key nodes, so the
// whole subtree is visited. Ascending granule order for determinism.
func (lt *hierLockTable) promote(affected map[int64]bool, rootChanged bool) []*actionMsg {
	var runnable []*actionMsg
	if rootChanged {
		runnable = lt.promoteNode(&lt.root, runnable)
	}
	gids := lt.gids[:0]
	for gid := range affected {
		gids = append(gids, gid)
	}
	slices.Sort(gids)
	lt.gids = gids
	for _, gid := range gids {
		g := lt.granules[gid]
		if g == nil {
			continue
		}
		runnable = lt.promoteNode(&g.node, runnable)
		if lt.keysWithWaiters(g) {
			ks := lt.ks[:0]
			for k, kn := range g.keys {
				if len(kn.waiters) > 0 {
					ks = append(ks, k)
				}
			}
			slices.Sort(ks)
			lt.ks = ks
			for _, k := range ks {
				if kn := g.keys[k]; kn != nil {
					runnable = lt.promoteNode(kn, runnable)
				}
			}
		}
	}
	return runnable
}

func (lt *hierLockTable) keysWithWaiters(g *granule) bool {
	for _, kn := range g.keys {
		if len(kn.waiters) > 0 {
			return true
		}
	}
	return false
}

// promoteNode re-attempts a node's waiters in FIFO order. A waiter that
// acquires fully becomes runnable; one still blocked HERE goes back to
// the queue front and stops the scan, except for the waiters of
// transactions that hold n (promoteHolders); one now blocked at a
// different level re-parks there (tail) and the scan continues.
// Re-attempting is deterministic between grants, so a moved waiter
// cannot ping-pong: its next failure at the new node front-parks it
// there. The runnable waiters are appended to out.
func (lt *hierLockTable) promoteNode(n *hnode, out []*actionMsg) []*actionMsg {
	prev := lt.promotingFrom
	lt.promotingFrom = n
	defer func() { lt.promotingFrom = prev }()
	for len(n.waiters) > 0 {
		w := n.waiters[0]
		n.waiters = n.waiters[:copy(n.waiters, n.waiters[1:])]
		lt.waiting--
		if lt.acquire(w) {
			out = append(out, w)
			continue
		}
		if lt.nodeFor(w.wnLevel, w.wnID) == n {
			n.waiters = append(n.waiters, nil)
			copy(n.waiters[1:], n.waiters)
			n.waiters[0] = w
			lt.waiting++
			return lt.promoteHolders(n, out)
		}
		lt.wait(w)
	}
	return out
}

// promoteHolders re-attempts, past n's blocked queue head, the waiters
// whose own transaction holds n — typically a later-phase action whose
// claim this promotion just granted. Such a waiter takes nothing from
// the waiters ahead of it (its transaction already holds the node, and
// every waiter that conflicts with it waits for that transaction
// anyway); leaving it parked would close a cycle: the head waits for
// the transaction, the transaction's action waits behind the head, and
// only the local timeout breaks it.
func (lt *hierLockTable) promoteHolders(n *hnode, out []*actionMsg) []*actionMsg {
	kept := n.waiters[:1]
	for _, w := range n.waiters[1:] {
		if n.holdOf(w.run.txn.ID) < 0 {
			kept = append(kept, w)
			continue
		}
		if lt.acquire(w) {
			lt.waiting--
			out = append(out, w)
			continue
		}
		if lt.nodeFor(w.wnLevel, w.wnID) == n {
			kept = append(kept, w)
			continue
		}
		lt.waiting--
		lt.wait(w)
	}
	clear(n.waiters[len(kept):])
	n.waiters = kept
	return out
}

func (lt *hierLockTable) dropEmptyGranule(gid int64) {
	if g := lt.granules[gid]; g != nil && g.node.empty() && len(g.keys) == 0 {
		delete(lt.granules, gid)
		lt.recycleGranule(g)
	}
}

// recycleGranule returns an empty, unlinked granule to the free list,
// keeping its node's capacity and its (cleared) key map.
func (lt *hierLockTable) recycleGranule(g *granule) {
	if &g.node == lt.promotingFrom || g.wide || !g.node.reusable() || len(lt.freeGrans) >= lockFreeCap {
		return
	}
	g.node.reset()
	clear(g.keys)
	lt.freeGrans = append(lt.freeGrans, g)
}

// sweepWaiters visits every parked waiter; judge returning false removes
// it (the caller has already reported/aborted it).
func (lt *hierLockTable) sweepWaiters(judge func(*actionMsg) bool) {
	sweep := func(n *hnode) {
		kept := n.waiters[:0]
		for _, w := range n.waiters {
			if judge(w) {
				kept = append(kept, w)
			} else {
				lt.waiting--
			}
		}
		n.waiters = kept
	}
	sweep(&lt.root)
	for gid, g := range lt.granules {
		sweep(&g.node)
		for k, kn := range g.keys {
			sweep(kn)
			if kn.empty() {
				g.dropKey(k)
			}
		}
		if g.node.empty() && len(g.keys) == 0 {
			delete(lt.granules, gid)
			lt.recycleGranule(g)
		}
	}
}

// waiterMovesAbove routes a migrating waiter at a split: point waiters
// go by their routing key; ranged waiters go by their routing key too
// (the action's locks cover the intersection of its interval with the
// owning partition's ranges, and the owner after the split is decided
// by the key).
func waiterMovesAbove(w *actionMsg, cut int64) bool { return w.routeKey >= cut }

// extractAbove hands the hierarchy's state for keys >= cut to a split
// target. Granules wholly above the cut move wholesale, an O(granules)
// transfer, and waiter actions travel with the state. The straddling
// granule splits its key nodes at the cut and DUPLICATES its
// granule-node holders to both sides: a coarse hold covered both halves,
// so both partitions must keep enforcing it (the release broadcast
// reaches every partition of the table and clears both copies). Root
// holders are duplicated for the same reason.
func (lt *hierLockTable) extractAbove(cut int64) *hierMoved {
	cutG := granuleOf(cut)
	mv := &hierMoved{granules: make(map[int64]*hierGranMoved)}
	for gid, g := range lt.granules {
		if gid < cutG {
			continue
		}
		if gid > cutG {
			mg := &hierGranMoved{node: g.node, keys: make(map[int64]*hnode, len(g.keys))}
			lt.waiting -= len(g.node.waiters)
			for k, kn := range g.keys {
				mg.keys[k] = kn
				lt.waiting -= len(kn.waiters)
			}
			mv.granules[gid] = mg
			lt.keyNodes -= len(g.keys)
			delete(lt.granules, gid)
			continue
		}
		// The straddling granule.
		mg := &hierGranMoved{keys: make(map[int64]*hnode)}
		mg.node.holders = append([]llHold(nil), g.node.holders...)
		keepW := g.node.waiters[:0]
		for _, w := range g.node.waiters {
			if waiterMovesAbove(w, cut) {
				mg.node.waiters = append(mg.node.waiters, w)
				lt.waiting--
			} else {
				keepW = append(keepW, w)
			}
		}
		g.node.waiters = keepW
		for k, kn := range g.keys {
			if k >= cut {
				mg.keys[k] = kn
				lt.waiting -= len(kn.waiters)
				g.detachKey(k)
			}
		}
		if len(mg.node.holders) > 0 || len(mg.node.waiters) > 0 || len(mg.keys) > 0 {
			mv.granules[gid] = mg
		}
		if g.node.empty() && len(g.keys) == 0 {
			delete(lt.granules, gid)
		}
	}
	mv.root.holders = append([]llHold(nil), lt.root.holders...)
	keepW := lt.root.waiters[:0]
	for _, w := range lt.root.waiters {
		if waiterMovesAbove(w, cut) {
			mv.root.waiters = append(mv.root.waiters, w)
			lt.waiting--
		} else {
			keepW = append(keepW, w)
		}
	}
	lt.root.waiters = keepW
	lt.rebuildTxnIndex()
	return mv
}

// extractAll removes and returns everything (merge/evacuate).
func (lt *hierLockTable) extractAll() *hierMoved {
	mv := &hierMoved{
		root:     lt.root,
		granules: make(map[int64]*hierGranMoved, len(lt.granules)),
	}
	for gid, g := range lt.granules {
		mg := &hierGranMoved{node: g.node, keys: make(map[int64]*hnode, len(g.keys))}
		for k, kn := range g.keys {
			mg.keys[k] = kn
		}
		mv.granules[gid] = mg
	}
	lt.root = hnode{}
	lt.granules = make(map[int64]*granule)
	lt.byTxn = make(map[uint64]*txnLocks)
	lt.waiting = 0
	lt.keyNodes = 0
	return mv
}

// adopt merges migrated hierarchy state in, returning newly grantable
// actions. Adopted waiters keep their seniority (prepended); a holder
// already present for the same transaction (a coarse duplicate from a
// split, or a lock granted here during the hand-off window) merges by
// lub.
func (lt *hierLockTable) adopt(in *hierMoved) []*actionMsg {
	if in == nil {
		return nil
	}
	for _, h := range in.root.holders {
		lt.root.mergeHold(h)
	}
	if len(in.root.waiters) > 0 {
		lt.root.waiters = append(append([]*actionMsg(nil), in.root.waiters...), lt.root.waiters...)
		lt.waiting += len(in.root.waiters)
	}
	affected := make(map[int64]bool, len(in.granules))
	for gid, mg := range in.granules {
		g := lt.granule(gid)
		for _, h := range mg.node.holders {
			g.node.mergeHold(h)
		}
		if len(mg.node.waiters) > 0 {
			g.node.waiters = append(append([]*actionMsg(nil), mg.node.waiters...), g.node.waiters...)
			lt.waiting += len(mg.node.waiters)
		}
		for k, e := range mg.keys {
			kn := g.key(k)
			for _, h := range e.holders {
				kn.mergeHold(h)
			}
			if len(e.waiters) > 0 {
				kn.waiters = append(append([]*actionMsg(nil), e.waiters...), kn.waiters...)
				lt.waiting += len(e.waiters)
			}
		}
		affected[gid] = true
	}
	lt.rebuildTxnIndex()
	runnable := lt.promote(affected, true)
	for gid := range affected {
		lt.dropEmptyGranule(gid)
	}
	return runnable
}

// rebuildTxnIndex reconstructs the per-transaction index from the node
// holders after a migration reshaped the hierarchy. Escalated flags are
// reset — an adopted coarse hold simply looks like a range lock, and
// the keys under it may escalate again on their own merits.
func (lt *hierLockTable) rebuildTxnIndex() {
	lt.byTxn = make(map[uint64]*txnLocks)
	for _, h := range lt.root.holders {
		lt.txnOf(h.txn).rootMode = h.mode
	}
	for gid, g := range lt.granules {
		for _, h := range g.node.holders {
			lt.txnOf(h.txn).gran(gid).mode = h.mode
		}
		for k, kn := range g.keys {
			for _, h := range kn.holders {
				tg := lt.txnOf(h.txn).gran(gid)
				tg.keys = append(tg.keys, k)
			}
		}
	}
}

// keyBusy reports any lock state (held or waited) covering routing value
// v: one granule probe plus one key probe in the common case — never a
// table sweep. Conservative at coarse levels: a granule-level hold or
// waiter of any kind reports the whole granule busy.
func (lt *hierLockTable) keyBusy(v int64) bool {
	lt.stats.keyProbes++
	if lt.rootCoarse() {
		return true
	}
	g := lt.granules[granuleOf(v)]
	if g == nil {
		return false
	}
	for _, h := range g.node.holders {
		if h.mode == xct.LockS || h.mode == xct.LockSIX || h.mode == xct.LockX {
			return true
		}
	}
	if len(g.node.waiters) > 0 {
		return true
	}
	return g.keys[v] != nil
}

// rangeBusy reports any lock state intersecting [lo, hi] in
// O(granules-with-state) — the one-intent maintenance gate.
func (lt *hierLockTable) rangeBusy(lo, hi int64) bool {
	lt.stats.rangeProbes++
	if lt.rootCoarse() {
		return true
	}
	gLo, gHi := granuleOf(lo), granuleOf(hi)
	for gid, g := range lt.granules {
		if gid < gLo || gid > gHi {
			continue
		}
		if !g.node.empty() {
			return true
		}
		for k := range g.keys {
			if lo <= k && k <= hi {
				return true
			}
		}
	}
	return false
}

// rootCoarse reports partition-level lock state: a coarse root hold, or
// anything queued there (conservative — a root waiter is about to cover
// the partition).
func (lt *hierLockTable) rootCoarse() bool {
	for _, h := range lt.root.holders {
		if h.mode == xct.LockS || h.mode == xct.LockSIX || h.mode == xct.LockX {
			return true
		}
	}
	return len(lt.root.waiters) > 0
}

// heldKeys counts key nodes plus coarse summaries, the monitor's "how
// much is locked" gauge. It is mirrored after every batch, so it must be
// O(1): key nodes come from the maintained counter, and every live
// granule counts as one summary (granules only exist while they hold
// state — empties are dropped eagerly).
func (lt *hierLockTable) heldKeys() int {
	n := lt.keyNodes + len(lt.granules)
	if len(lt.root.holders) > 0 {
		n++
	}
	return n
}

func (lt *hierLockTable) waitingCount() int { return lt.waiting }

func (lt *hierLockTable) snapshotStats() lockStats { return lt.stats }
