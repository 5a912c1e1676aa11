package btree

import (
	"math"
)

// Continuation-passing access to owned subtrees.
//
// The synchronous protocol (runAt, ExecAt) parks the calling goroutine
// for the full round trip of every foreign operation: enqueue on the
// owner's inbox, wait behind whatever the owner is doing, run, wake up.
// Non-worker callers (plain sessions, maintenance) use it. When the
// caller is a partition worker, that round trip would idle a whole
// micro-engine — and a cycle of such ships would deadlock.
//
// The async protocol below never parks. A foreign operation is shipped
// through the subtree's OwnerExecAsync hook together with a continuation;
// the owner runs the operation on its thread and hands the continuation
// back through the sender's home executor (its inbox). Between ship and
// continuation the sender's thread is free to drain its own queue, and a
// cyclic ship graph merely round-trips messages — nobody is parked, so
// nothing can wedge.
//
// The stale-hop discipline is identical to the synchronous path: a shipped
// operation landing on a worker whose ownership moved on (split/merge
// raced the hand-off) does not run; the failure travels back through the
// continuation and the ORIGINAL caller re-resolves. Ships stay a single
// sender→owner hop.

// ExecAtAsync implements AccessMethod (see the interface comment). When
// key's subtree is unowned or owned by the caller, fn and done run inline
// and ExecAtAsync returns only after both — the aligned path is exactly
// ExecAt plus one function call. A foreign subtree must carry an async
// hook (ClaimRange.ExecAsync).
func (pt *PartitionedTree) ExecAtAsync(caller *Owner, key int64, home ContExec, fn func(tok *Owner), done func()) {
	for attempt := 0; ; attempt++ {
		pt.mu.RLock()
		st := pt.locate(key)
		owner, execAsync := st.owner, st.execAsync
		pt.mu.RUnlock()
		if owner == nil || owner == caller {
			fn(owner)
			done()
			return
		}
		ran := false
		if execAsync(home, func(tok *Owner) {
			pt.mu.RLock()
			st := pt.locate(key)
			cur := st.owner
			pt.mu.RUnlock()
			if cur != nil && cur != tok {
				return // stale hop: fail back, caller re-resolves
			}
			fn(cur)
			ran = true
		}, func(ok bool) {
			if ok && ran {
				done()
				return
			}
			// Owner retired or the range moved before fn ran; re-resolve
			// from the continuation (a fresh stack each round — the retry
			// loop cannot grow recursion unboundedly).
			pt.ExecAtAsync(caller, key, home, fn, done)
		}) {
			return
		}
		// Could not even enqueue (owner retired between the topology read
		// and the push); re-resolve inline.
		pt.shipRetry(attempt)
	}
}

// AscendRangeAsync implements AccessMethod: the CPS mirror of ascendAs.
// Local segments scan inline in a loop; a foreign segment ships to its
// owner and the walk resumes from the delivered continuation. fn runs on
// whichever thread scans each segment (sequentially, never concurrently);
// like the synchronous scan, the whole walk is fuzzy — point consistency
// comes from the lock protocol above.
func (pt *PartitionedTree) AscendRangeAsync(caller *Owner, lo, hi int64, home ContExec, fn func(key int64, val uint64) bool, done func()) {
	cur := lo
	attempt := 0
	for cur <= hi {
		var segHi int64
		cont := true
		pt.mu.RLock()
		st := pt.locate(cur)
		segHi = st.hi
		if hi < segHi {
			segHi = hi
		}
		if st.owner == nil || st.owner == caller {
			if st.owner == nil {
				st.tree.AscendRange(cur, segHi, func(k int64, v uint64) bool {
					cont = fn(k, v)
					return cont
				})
			} else {
				cont = st.tree.ascendRangeNL(cur, segHi, fn)
			}
			pt.mu.RUnlock()
			if !cont || segHi == math.MaxInt64 || segHi >= hi {
				done()
				return
			}
			cur = segHi + 1
			continue
		}
		execAsync := st.execAsync
		pt.mu.RUnlock()
		from := cur // resolved start of the foreign segment
		ran := false
		segEnd := int64(0)
		if execAsync(home, func(tok *Owner) {
			pt.mu.RLock()
			st := pt.locate(from)
			if st.owner != nil && st.owner != tok {
				pt.mu.RUnlock()
				return // stale hop: fail back, walk re-resolves
			}
			sh := st.hi
			if hi < sh {
				sh = hi
			}
			if st.owner == nil {
				st.tree.AscendRange(from, sh, func(k int64, v uint64) bool {
					cont = fn(k, v)
					return cont
				})
			} else {
				cont = st.tree.ascendRangeNL(from, sh, fn)
			}
			pt.mu.RUnlock()
			segEnd = sh
			ran = true
		}, func(ok bool) {
			if !ok || !ran {
				pt.AscendRangeAsync(caller, from, hi, home, fn, done)
				return
			}
			if !cont || segEnd == math.MaxInt64 || segEnd >= hi {
				done()
				return
			}
			pt.AscendRangeAsync(caller, segEnd+1, hi, home, fn, done)
		}) {
			return
		}
		pt.shipRetry(attempt)
		attempt++
	}
	done()
}
