package btree

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"dora/internal/metrics"
)

// This file implements the physiologically-partitioned access path
// (PLP-style MRBTree): a thin ordered root that fans out to per-key-range
// subtrees, each of which can be exclusively OWNED by one worker thread.
//
// Access protocol, per subtree:
//
//   - unowned (owner == nil): the conventional crabbed/latched Tree path,
//     exactly as before this structure existed. The conventional engine,
//     load phases, and recovery all run here.
//   - owned, caller == owner: the latch-free node path (nolatch.go). The
//     DORA partition worker that owns the logical key range descends its
//     own subtree with zero latch acquisitions.
//   - owned, caller != owner: the operation is SHIPPED to the owner and
//     re-executed on its thread via the OwnerExec hook installed at claim
//     time (in DORA: an inbox message). A non-owner can therefore never
//     descend an owned subtree — the ownership violation is impossible by
//     construction; if no executor was installed, it panics instead of
//     racing.
//
// Topology (the range→subtree map) is guarded by an RWMutex: every
// operation holds it shared for its duration, topology changes (Claim,
// Release, MoveRange, ReassignOwner) take it exclusively. The shared hold
// is a single uncontended atomic in the steady state and is deliberately
// NOT counted as a latch critical section — the per-node crabbing it
// replaces is what experiment E12 measures.

// Owner is an opaque ownership token. Subtree ownership is compared by
// token identity, never by integer worker ids, so an arbitrary session
// created with a colliding worker number cannot impersonate a partition
// worker. The struct must stay non-zero-sized: Go gives all zero-size
// allocations the same address, which would make every token compare
// equal.
type Owner struct {
	// scratch is state an upper layer keeps for the owner's thread (the
	// storage manager's reusable write buffers). Only the thread the
	// token belongs to runs with it, so scratch needs no synchronization.
	scratch any
}

// NewOwner mints a fresh ownership token.
func NewOwner() *Owner { return new(Owner) }

// Scratch returns the value last given to SetScratch (nil at first).
// Call it only on the owner's thread.
func (o *Owner) Scratch() any { return o.scratch }

// SetScratch attaches per-thread state to the token. Call it only on the
// owner's thread.
func (o *Owner) SetScratch(v any) { o.scratch = v }

// OwnerExec runs fn on the goroutine that owns a subtree, passing that
// goroutine's own token, and blocks until fn completed. It returns false
// (without running fn) when the owner is gone — the caller re-resolves
// the topology and retries.
type OwnerExec func(fn func(tok *Owner)) bool

// ContExec runs a continuation k on the thread an asynchronous operation
// originated from — in DORA, the sender partition's inbox. A nil ContExec
// means "no home thread": the continuation runs inline on whichever
// thread completed the operation.
type ContExec func(k func())

// OwnerExecAsync ships fn to a subtree's owner WITHOUT blocking the
// caller — the continuation-passing counterpart of OwnerExec. It returns
// false when the ship could not even be enqueued (owner retired; done is
// NOT called and the caller re-resolves inline). When it returns true,
// done(ok) is invoked exactly once, delivered through home: ok=true
// after fn ran on the owner's thread, ok=false when the owner retired
// before running it (the caller re-resolves from the continuation).
type OwnerExecAsync func(home ContExec, fn func(tok *Owner), done func(ok bool)) bool

// AccessMethod is the index-structure contract the storage manager
// programs against: a shared latched Tree or a PartitionedTree. The
// caller token identifies which (if any) partition worker is asking;
// shared trees ignore it.
type AccessMethod interface {
	GetAs(caller *Owner, key int64) (uint64, error)
	InsertAs(caller *Owner, key int64, val uint64) error
	PutAs(caller *Owner, key int64, val uint64) error
	DeleteAs(caller *Owner, key int64) (uint64, error)
	AscendRangeAs(caller *Owner, lo, hi int64, fn func(key int64, val uint64) bool)
	// ExecAt runs fn on the thread that may exclusively access key's
	// subtree, passing that thread's ownership token — the subtree
	// owner's token when the subtree is claimed (shipping to its worker
	// if the caller is someone else), nil when the tree (or subtree) is
	// shared/latched (fn then runs inline on the caller's thread). The
	// storage manager wraps whole logical operations in it so every
	// access to owner-claimed data — index AND heap — executes on the
	// owning thread (thread-to-data down to the physical layer).
	ExecAt(caller *Owner, key int64, fn func(tok *Owner))
	// ExecAtAsync is ExecAt in continuation-passing style: instead of
	// parking the caller while a foreign operation ships, it returns as
	// soon as the ship is enqueued; done() fires exactly once after fn
	// ran, delivered through home (see ContExec). When key's subtree is
	// local (unowned, or owned by the caller) fn and done run inline
	// before ExecAtAsync returns — the aligned fast path costs no
	// message.
	ExecAtAsync(caller *Owner, key int64, home ContExec, fn func(tok *Owner), done func())
	// AscendRangeAsync is AscendRangeAs in continuation-passing style:
	// local segments scan inline, foreign segments ship to their owners
	// one at a time with the walk resuming from each continuation; done()
	// fires exactly once after the scan finished or fn stopped it.
	AscendRangeAsync(caller *Owner, lo, hi int64, home ContExec, fn func(key int64, val uint64) bool, done func())
	// Local reports whether caller may run an operation on key's subtree
	// inline, and with which token — ExecAt's own inline test (unowned:
	// nil; owned by the caller: the caller's token). Callers branch on it
	// to keep their owner path free of the closure ExecAt needs.
	Local(caller *Owner, key int64) (tok *Owner, ok bool)
	Len() int
}

// Tree implements AccessMethod by ignoring the caller: a plain tree is
// always shared and always latched.

// GetAs implements AccessMethod.
func (t *Tree) GetAs(_ *Owner, key int64) (uint64, error) { return t.Get(key) }

// InsertAs implements AccessMethod.
func (t *Tree) InsertAs(_ *Owner, key int64, val uint64) error { return t.Insert(key, val) }

// PutAs implements AccessMethod.
func (t *Tree) PutAs(_ *Owner, key int64, val uint64) error { return t.Put(key, val) }

// DeleteAs implements AccessMethod.
func (t *Tree) DeleteAs(_ *Owner, key int64) (uint64, error) { return t.Delete(key) }

// AscendRangeAs implements AccessMethod.
func (t *Tree) AscendRangeAs(_ *Owner, lo, hi int64, fn func(key int64, val uint64) bool) {
	t.AscendRange(lo, hi, fn)
}

// ExecAt implements AccessMethod: a plain tree is always shared, so fn
// runs inline with no ownership token.
func (t *Tree) ExecAt(_ *Owner, _ int64, fn func(tok *Owner)) { fn(nil) }

// ExecAtAsync implements AccessMethod: a shared tree never ships, so fn
// and the continuation run inline.
func (t *Tree) ExecAtAsync(_ *Owner, _ int64, _ ContExec, fn func(tok *Owner), done func()) {
	fn(nil)
	done()
}

// Local implements AccessMethod: a shared tree is local to everyone.
func (t *Tree) Local(_ *Owner, _ int64) (*Owner, bool) { return nil, true }

// AscendRangeAsync implements AccessMethod: inline on a shared tree.
func (t *Tree) AscendRangeAsync(_ *Owner, lo, hi int64, _ ContExec, fn func(key int64, val uint64) bool, done func()) {
	t.AscendRange(lo, hi, fn)
	done()
}

// subtree is one contiguous key range [lo, hi] and its tree.
type subtree struct {
	lo, hi    int64
	owner     *Owner
	exec      OwnerExec
	execAsync OwnerExecAsync
	tree      *Tree
}

// get, upsert and del run one point operation on the subtree by the
// path its ownership allows: latch-free when owned (the caller is then
// its owner), crabbed/latched when shared.
func (st *subtree) get(key int64) (uint64, error) {
	if st.owner != nil {
		return st.tree.getNL(key)
	}
	return st.tree.Get(key)
}

func (st *subtree) upsert(key int64, val uint64, replace bool) error {
	switch {
	case st.owner != nil:
		return st.tree.upsertNL(key, val, replace)
	case replace:
		return st.tree.Put(key, val)
	}
	return st.tree.Insert(key, val)
}

func (st *subtree) del(key int64) (uint64, error) {
	if st.owner != nil {
		return st.tree.deleteNL(key)
	}
	return st.tree.Delete(key)
}

// PartitionedTree is the partitioned access method. The zero value is not
// usable; call NewPartitioned.
type PartitionedTree struct {
	cs *metrics.CriticalSectionStats

	// Ship-retry accounting: every fail-back re-resolution of a shipped
	// operation (stale hop, retired owner) counts a retry; the subset
	// that slept (past the yield-only rounds) counts a wait.
	retries    metrics.Counter
	retryWaits metrics.Counter

	mu   sync.RWMutex
	subs []*subtree // sorted by lo, contiguous, covering all of int64
}

// Ship-retry pacing. A fail-back retry loop re-resolves immediately
// for the first few rounds (the common transient: ownership moved one
// hop while the ship was in flight), then backs off with
// exponentially growing sleeps capped at shipRetryMaxWait — a long
// rebalance storm must not spin a core hot re-shipping into a
// topology that keeps moving.
const (
	shipRetryYields  = 4
	shipRetryMaxWait = time.Millisecond
)

// shipRetry paces one fail-back retry round.
func (pt *PartitionedTree) shipRetry(attempt int) {
	pt.retries.Inc()
	if attempt < shipRetryYields {
		runtime.Gosched()
		return
	}
	pt.retryWaits.Inc()
	shift := attempt - shipRetryYields
	if shift > 10 {
		shift = 10
	}
	d := time.Duration(int64(1)<<uint(shift)) * time.Microsecond
	if d > shipRetryMaxWait {
		d = shipRetryMaxWait
	}
	time.Sleep(d)
}

// ShipRetryStats returns the cumulative fail-back retry count and the
// subset that slept (see shipRetry); dora's ShipSnapshot aggregates
// these across a catalog.
func (pt *PartitionedTree) ShipRetryStats() (retries, waits int64) {
	return pt.retries.Load(), pt.retryWaits.Load()
}

// NewPartitioned returns a partitioned tree with a single unowned subtree
// spanning the whole key space — behaviourally identical to a shared
// latched Tree until someone claims ranges.
func NewPartitioned(cs *metrics.CriticalSectionStats) *PartitionedTree {
	return &PartitionedTree{
		cs:   cs,
		subs: []*subtree{{lo: math.MinInt64, hi: math.MaxInt64, tree: New(cs)}},
	}
}

// locate returns the subtree holding key. Callers hold pt.mu.
func (pt *PartitionedTree) locate(key int64) *subtree {
	subs := pt.subs
	i := sort.Search(len(subs), func(i int) bool { return subs[i].hi >= key })
	return subs[i]
}

// local returns key's subtree with pt.mu held shared when the caller
// may run an operation on it directly (unowned, or owned by the caller);
// the caller runs it and then releases pt.mu. nil (pt.mu released) means
// the operation ships.
func (pt *PartitionedTree) local(caller *Owner, key int64) *subtree {
	pt.mu.RLock()
	if st := pt.locate(key); st.owner == nil || st.owner == caller {
		return st
	}
	pt.mu.RUnlock()
	return nil
}

// runAt executes op against the subtree holding key under the access
// protocol, shipping it to the owner when the caller is someone else.
// The point operations below try local first and build the closure they
// hand runAt only to ship, so the owner path allocates nothing.
//
// A shipped operation that lands on a worker whose ownership has since
// moved on (split/merge raced the hand-off) does NOT chain another ship
// from that worker's thread: the worker's queue may be what the new
// owner is waiting on (a split target buffers everything until the
// source's adopt message, and the source's own queue could hold the
// blocking ship), so chaining deadlocks. Instead the stale hop fails
// back and the ORIGINAL caller re-resolves — ships are always a single
// sender→owner hop.
func (pt *PartitionedTree) runAt(caller *Owner, key int64, op func(st *subtree)) {
	for attempt := 0; ; attempt++ {
		pt.mu.RLock()
		st := pt.locate(key)
		if st.owner == nil || st.owner == caller {
			op(st)
			pt.mu.RUnlock()
			return
		}
		exec := st.exec
		pt.mu.RUnlock()
		if exec == nil {
			panic("btree: non-owner descent into an owned subtree (ownership violation: no owner executor installed)")
		}
		ran := false
		ok := exec(func(tok *Owner) {
			pt.mu.RLock()
			st := pt.locate(key)
			if st.owner != nil && st.owner != tok {
				pt.mu.RUnlock()
				return // stale hop: fail back, caller re-resolves
			}
			op(st)
			pt.mu.RUnlock()
			ran = true
		})
		if ok && ran {
			return
		}
		// The owner retired or the range moved on between the topology
		// read and the hand-off; re-resolve.
		pt.shipRetry(attempt)
	}
}

// GetAs implements AccessMethod.
func (pt *PartitionedTree) GetAs(caller *Owner, key int64) (uint64, error) {
	if st := pt.local(caller, key); st != nil {
		v, err := st.get(key)
		pt.mu.RUnlock()
		return v, err
	}
	var v uint64
	var err error
	pt.runAt(caller, key, func(st *subtree) { v, err = st.get(key) })
	return v, err
}

// InsertAs implements AccessMethod.
func (pt *PartitionedTree) InsertAs(caller *Owner, key int64, val uint64) error {
	return pt.upsertAs(caller, key, val, false)
}

// PutAs implements AccessMethod.
func (pt *PartitionedTree) PutAs(caller *Owner, key int64, val uint64) error {
	return pt.upsertAs(caller, key, val, true)
}

func (pt *PartitionedTree) upsertAs(caller *Owner, key int64, val uint64, replace bool) error {
	if st := pt.local(caller, key); st != nil {
		err := st.upsert(key, val, replace)
		pt.mu.RUnlock()
		return err
	}
	var err error
	pt.runAt(caller, key, func(st *subtree) { err = st.upsert(key, val, replace) })
	return err
}

// DeleteAs implements AccessMethod.
func (pt *PartitionedTree) DeleteAs(caller *Owner, key int64) (uint64, error) {
	if st := pt.local(caller, key); st != nil {
		v, err := st.del(key)
		pt.mu.RUnlock()
		return v, err
	}
	var v uint64
	var err error
	pt.runAt(caller, key, func(st *subtree) { v, err = st.del(key) })
	return v, err
}

// AscendRangeAs implements AccessMethod: the scan walks subtrees in key
// order, taking the owner-appropriate path per subtree. Cross-partition
// segments are shipped to their owners one segment at a time; like the
// shared tree's leaf-chain crabbing, the whole scan is fuzzy — point
// consistency comes from the lock protocol above, not from here.
func (pt *PartitionedTree) AscendRangeAs(caller *Owner, lo, hi int64, fn func(key int64, val uint64) bool) {
	pt.ascendAs(caller, lo, hi, fn)
}

// ascendAs reports whether the scan ran to completion.
func (pt *PartitionedTree) ascendAs(caller *Owner, lo, hi int64, fn func(key int64, val uint64) bool) bool {
	cur := lo
	for cur <= hi {
		var segHi int64
		done := true
		for attempt := 0; ; attempt++ {
			pt.mu.RLock()
			st := pt.locate(cur)
			segHi = st.hi
			if hi < segHi {
				segHi = hi
			}
			if st.owner == nil || st.owner == caller {
				if st.owner == nil {
					st.tree.AscendRange(cur, segHi, func(k int64, v uint64) bool {
						done = fn(k, v)
						return done
					})
				} else {
					done = st.tree.ascendRangeNL(cur, segHi, fn)
				}
				pt.mu.RUnlock()
				break
			}
			exec := st.exec
			pt.mu.RUnlock()
			if exec == nil {
				panic("btree: non-owner scan into an owned subtree (ownership violation: no owner executor installed)")
			}
			// Single-hop ship with stale-hop fail-back (see runAt).
			ran := false
			ok := exec(func(tok *Owner) {
				pt.mu.RLock()
				st := pt.locate(cur)
				if st.owner != nil && st.owner != tok {
					pt.mu.RUnlock()
					return
				}
				segHi = st.hi
				if hi < segHi {
					segHi = hi
				}
				if st.owner == nil {
					st.tree.AscendRange(cur, segHi, func(k int64, v uint64) bool {
						done = fn(k, v)
						return done
					})
				} else {
					done = st.tree.ascendRangeNL(cur, segHi, fn)
				}
				pt.mu.RUnlock()
				ran = true
			})
			if ok && ran {
				break
			}
			pt.shipRetry(attempt)
		}
		if !done {
			return false
		}
		if segHi == math.MaxInt64 {
			return true
		}
		cur = segHi + 1
	}
	return true
}

// Local implements AccessMethod.
func (pt *PartitionedTree) Local(caller *Owner, key int64) (*Owner, bool) {
	pt.mu.RLock()
	owner := pt.locate(key).owner
	pt.mu.RUnlock()
	return owner, owner == nil || owner == caller
}

// ExecAt implements AccessMethod: fn runs on the thread owning key's
// subtree with that thread's token (shipping through the owner executor
// when the caller is someone else), or inline with a nil token when the
// subtree is unowned. Unlike runAt it does NOT hold the topology lock
// while fn runs: fn is an arbitrary logical operation (it may touch the
// heap, the log, or other subtrees of this or other trees), so it
// re-enters the access methods normally. The thread guarantee is what
// matters: while fn runs on the owner, no latch-free access of that
// owner can race it.
func (pt *PartitionedTree) ExecAt(caller *Owner, key int64, fn func(tok *Owner)) {
	for attempt := 0; ; attempt++ {
		pt.mu.RLock()
		st := pt.locate(key)
		owner, exec := st.owner, st.exec
		pt.mu.RUnlock()
		if owner == nil || owner == caller {
			fn(owner)
			return
		}
		if exec == nil {
			panic("btree: ExecAt into an owned subtree with no owner executor installed")
		}
		// Single-hop ship with stale-hop fail-back (see runAt): the
		// landing worker re-checks ownership and runs fn only if the
		// subtree is still (or now shared-)accessible from its thread.
		ran := false
		ok := exec(func(tok *Owner) {
			pt.mu.RLock()
			st := pt.locate(key)
			cur := st.owner
			pt.mu.RUnlock()
			if cur != nil && cur != tok {
				return // stale hop: fail back, caller re-resolves
			}
			fn(cur)
			ran = true
		})
		if ok && ran {
			return
		}
		// Owner retired or the range moved on between the topology read
		// and the hand-off (split/merge/shutdown race); re-resolve.
		pt.shipRetry(attempt)
	}
}

// Len sums the subtree sizes.
func (pt *PartitionedTree) Len() int {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	n := 0
	for _, st := range pt.subs {
		n += st.tree.Len()
	}
	return n
}

// NumSubtrees reports the current fan-out of the root (statistics).
func (pt *PartitionedTree) NumSubtrees() int {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return len(pt.subs)
}

// OwnedSubtrees reports how many subtrees currently have an owner.
func (pt *PartitionedTree) OwnedSubtrees() int {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	n := 0
	for _, st := range pt.subs {
		if st.owner != nil {
			n++
		}
	}
	return n
}

// ClaimRange assigns [Lo, Hi] (in index-key space) to Owner, whose
// foreign-access executor is Exec. ExecAsync is the continuation-passing
// executor async operations (ExecAtAsync, AscendRangeAsync) ship
// through; a claim that leaves it nil supports only the synchronous
// operations.
type ClaimRange struct {
	Lo, Hi    int64
	Owner     *Owner
	Exec      OwnerExec
	ExecAsync OwnerExecAsync
}

// Claim physically re-partitions the tree into one subtree per claim
// range and installs the owners. Ranges are sorted and padded to cover
// the whole key space (the first extends to -inf, the last to +inf, and
// interior gaps attach to the range below them), mirroring the routing
// table's clamping. Claim requires a quiesced tree: no concurrent
// operations may be in flight — in DORA it runs at engine construction,
// before any worker accepts actions.
func (pt *PartitionedTree) Claim(ranges []ClaimRange) {
	if len(ranges) == 0 {
		return
	}
	rs := append([]ClaimRange(nil), ranges...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	rs[0].Lo = math.MinInt64
	for i := 0; i+1 < len(rs); i++ {
		rs[i].Hi = rs[i+1].Lo - 1
	}
	rs[len(rs)-1].Hi = math.MaxInt64

	pt.mu.Lock()
	defer pt.mu.Unlock()
	var pairs []kv
	for _, st := range pt.subs {
		st.tree.ascendRangeNL(math.MinInt64, math.MaxInt64, func(k int64, v uint64) bool {
			pairs = append(pairs, kv{k, v})
			return true
		})
	}
	subs := make([]*subtree, 0, len(rs))
	idx := 0
	for _, r := range rs {
		end := idx
		for end < len(pairs) && pairs[end].k <= r.Hi {
			end++
		}
		subs = append(subs, &subtree{
			lo: r.Lo, hi: r.Hi, owner: r.Owner, exec: r.Exec, execAsync: r.ExecAsync,
			tree: newTreeFromSorted(pt.cs, pairs[idx:end]),
		})
		idx = end
	}
	pt.subs = subs
}

// Release drops all ownership: every subtree becomes shared/latched. The
// topology is kept (no data movement). Safe to call at any time; new
// operations see the shared path immediately, and callers parked in the
// ship-retry loop fall through to it.
func (pt *PartitionedTree) Release() {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for _, st := range pt.subs {
		st.owner, st.exec, st.execAsync = nil, nil, nil
	}
}

// MoveRange hands the key interval [lo, hi] from its current owner (the
// calling token) to newOwner — the access-path half of a partition split.
// Subtrees fully inside the interval change owner in place (no data
// movement, which is also how merges adopt whole subtrees); partial
// overlaps are physically extracted into fresh subtrees. Unowned subtrees
// in the interval stay shared (nothing to hand over). Must be called on
// the owning worker's goroutine, so no latch-free access can be in
// flight. newAsync may be nil only if no async operation reaches the
// range (see ClaimRange).
func (pt *PartitionedTree) MoveRange(caller *Owner, lo, hi int64, newOwner *Owner, newExec OwnerExec, newAsync OwnerExecAsync) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var out []*subtree
	for _, st := range pt.subs {
		if st.hi < lo || st.lo > hi || st.owner == nil {
			out = append(out, st)
			continue
		}
		if st.owner != caller {
			panic("btree: MoveRange by a non-owner of an affected subtree")
		}
		if lo <= st.lo && st.hi <= hi {
			st.owner, st.exec, st.execAsync = newOwner, newExec, newAsync
			out = append(out, st)
			continue
		}
		cutLo, cutHi := st.lo, st.hi
		if lo > cutLo {
			cutLo = lo
		}
		if hi < cutHi {
			cutHi = hi
		}
		moved := st.tree.extractRangeNL(cutLo, cutHi)
		if st.lo < cutLo {
			out = append(out, &subtree{lo: st.lo, hi: cutLo - 1, owner: st.owner, exec: st.exec, execAsync: st.execAsync, tree: st.tree})
			out = append(out, &subtree{lo: cutLo, hi: cutHi, owner: newOwner, exec: newExec, execAsync: newAsync, tree: newTreeFromSorted(pt.cs, moved)})
			if cutHi < st.hi {
				rest := st.tree.extractRangeNL(cutHi+1, st.hi)
				out = append(out, &subtree{lo: cutHi + 1, hi: st.hi, owner: st.owner, exec: st.exec, execAsync: st.execAsync, tree: newTreeFromSorted(pt.cs, rest)})
			}
		} else {
			out = append(out, &subtree{lo: cutLo, hi: cutHi, owner: newOwner, exec: newExec, execAsync: newAsync, tree: newTreeFromSorted(pt.cs, moved)})
			if cutHi < st.hi {
				out = append(out, &subtree{lo: cutHi + 1, hi: st.hi, owner: st.owner, exec: st.exec, execAsync: st.execAsync, tree: st.tree})
			}
		}
	}
	pt.subs = out
}

// ReassignOwner points every subtree owned by from at to (merge
// evacuation: the adopting worker takes the retiring worker's subtrees
// wholesale, no data movement). Must be called on the retiring owner's
// goroutine. execAsync may be nil only if no async operation reaches the
// moved subtrees (see ClaimRange).
func (pt *PartitionedTree) ReassignOwner(from, to *Owner, exec OwnerExec, execAsync OwnerExecAsync) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for _, st := range pt.subs {
		if st.owner == from {
			st.owner, st.exec, st.execAsync = to, exec, execAsync
		}
	}
}

// CompactStats reports what one CompactOwned pass did.
type CompactStats struct {
	// Merged counts subtrees folded into an adjacent same-owner
	// neighbour (each merge of k subtrees counts k-1).
	Merged int
	// Rebuilt counts sparse subtrees bulk-rebuilt in place.
	Rebuilt int
	// Ghosts counts the empty/underfull leaf nodes the merges and
	// rebuilds released — the lazy-deletion residue.
	Ghosts int
}

// CompactOwned is the access-path half of background physical
// maintenance: it merges runs of ADJACENT subtrees owned by the caller
// into single subtrees (repeated split/merge cycles leave the retiring
// side's subtrees behind, growing root fan-out without bound) and
// bulk-rebuilds subtrees whose leaf occupancy fell below minUtil of the
// bulk-load fill (lazy deletion keeps empty and underfull leaves — the
// "ghosts" — forever otherwise). Both transformations preserve contents
// exactly; indexes are volatile, so nothing is logged.
//
// Must be called on the owning worker's goroutine: taking the topology
// lock exclusively there guarantees no latch-free descent of the caller
// is in flight, and every other accessor is either parked on the lock
// or shipping through the owner executor (serialized behind this call).
func (pt *PartitionedTree) CompactOwned(caller *Owner, minUtil float64) CompactStats {
	var cs CompactStats
	if caller == nil {
		return cs
	}
	if minUtil <= 0 || minUtil > 1 {
		minUtil = 0.5
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var out []*subtree
	i := 0
	for i < len(pt.subs) {
		st := pt.subs[i]
		if st.owner != caller {
			out = append(out, st)
			i++
			continue
		}
		// Extent of the adjacent same-owner run starting at i.
		j := i + 1
		for j < len(pt.subs) && pt.subs[j].owner == caller {
			j++
		}
		run := pt.subs[i:j]
		leaves, keys := 0, 0
		for _, s := range run {
			l, k := s.tree.leafStatsNL()
			leaves, keys = leaves+l, keys+k
		}
		// A rebuild can only help when the tree has more leaves than a
		// bulk load of its keys needs: a small or already-minimal tree
		// below the occupancy target must NOT count as work, or the
		// daemon's converge-until-no-work loop never reaches its fixed
		// point (it would rebuild the same minimal shape forever).
		minLeaves := (keys + bulkFill - 1) / bulkFill
		if minLeaves < 1 {
			minLeaves = 1
		}
		sparse := leaves > minLeaves && float64(keys) < float64(leaves*bulkFill)*minUtil
		merged := st
		if len(run) > 1 || sparse {
			var pairs []kv
			for _, s := range run {
				s.tree.ascendRangeNL(math.MinInt64, math.MaxInt64, func(k int64, v uint64) bool {
					pairs = append(pairs, kv{k, v})
					return true
				})
			}
			merged = &subtree{
				lo: run[0].lo, hi: run[len(run)-1].hi,
				owner: caller, exec: st.exec, execAsync: st.execAsync,
				tree: newTreeFromSorted(pt.cs, pairs),
			}
			newLeaves, _ := merged.tree.leafStatsNL()
			cs.Merged += len(run) - 1
			if len(run) == 1 {
				cs.Rebuilt++
			}
			if freed := leaves - newLeaves; freed > 0 {
				cs.Ghosts += freed
			}
		}
		out = append(out, merged)
		i = j
	}
	pt.subs = out
	return cs
}

// SubtreeStat aggregates the tree's physical-shape statistics for the
// maintenance daemon's decay detection and the monitor.
type SubtreeStat struct {
	Subtrees int // root fan-out
	Owned    int // subtrees with an owner
	Keys     int
	Leaves   int
}

// ShapeStats walks every subtree and reports fan-out, ownership and
// leaf occupancy. Leaf counts are read under the topology lock via the
// latch-free walkers; concurrent owned-subtree mutations are excluded
// because their owners' operations hold the lock shared for their
// duration — the counts are exact at a quiesce and advisory otherwise.
func (pt *PartitionedTree) ShapeStats() SubtreeStat {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var s SubtreeStat
	s.Subtrees = len(pt.subs)
	for _, st := range pt.subs {
		if st.owner != nil {
			s.Owned++
		}
		l, k := st.tree.leafStatsNL()
		s.Leaves += l
		s.Keys += k
	}
	return s
}
