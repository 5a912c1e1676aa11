package dora

import (
	"dora/internal/btree"
	"dora/internal/buffer"
	"dora/internal/catalog"
	"dora/internal/page"
)

// Owner-coordinated page cleaning. Since owner mutations of stamped heap
// pages are latch-free, the buffer pool cannot latch a stamped dirty
// frame to flush it — only the owning worker's thread may read its bytes
// consistently. So the pool's write-back (cleaner daemon, checkpoint
// FlushAll, forced paths) asks US through its one snapshot hook:
// snapshotPageAsync resolves the page's stamp to the partition worker
// holding it and ships a copy request through that worker's inbox as a
// shipMsg, exactly like every other foreign access. The owner copies the
// image between two of its operations — a quiescent point by
// construction — and the requester hardens the copy while the owner
// keeps mutating the live frame. A checkpoint keeps many requests in
// flight; a single write-back waits for its one reply.

// snapshotPageAsync implements buffer.SnapshotterAsync. It returns as
// soon as the copy request is enqueued on the owner's inbox (or
// resolution failed); done fires exactly once — inline on the owner's
// thread right after it took the copy — with ok=false telling the pool
// to re-resolve: the stamp moved (a split handed the page's records
// over, an evacuate reassigned it, or the owner retired mid-ship) or the
// engine is shut down (stamps are released right after the workers
// drain, so the pool's retry loop terminates on the latched path). The
// exec gate is held shared until done fires, mirroring ExecOnOwnerAsync,
// so a quiescing Repartition never interleaves with an in-flight
// snapshot. No retry loop here: the pool owns the fallback.
func (e *Dora) snapshotPageAsync(pid page.ID, done func(buffer.PageSnapshot, bool)) {
	e.execGate.RLock()
	finish := func(snap buffer.PageSnapshot, ok bool) {
		e.execGate.RUnlock()
		done(snap, ok)
	}
	if e.closed {
		finish(buffer.PageSnapshot{}, false)
		return
	}
	var tbl *catalog.Table
	var tok *btree.Owner
	for _, t := range e.sm.Cat.Tables() {
		if o := t.Heap.StampOwner(pid); o != nil {
			tbl, tok = t, o
			break
		}
	}
	if tbl == nil {
		finish(buffer.PageSnapshot{}, false)
		return
	}
	e.topoMu.RLock()
	var p *partition
	for _, q := range e.tableParts[tbl.ID] {
		if q.token == tok {
			p = q
			break
		}
	}
	e.topoMu.RUnlock()
	if p == nil {
		finish(buffer.PageSnapshot{}, false)
		return
	}
	var snap buffer.PageSnapshot
	var got bool
	heap := tbl.Heap
	// No home executor: the continuation runs inline on the owner's
	// thread, strictly after fn — snap/got need no synchronization. A
	// split that unstamped the page makes fn report got=false and the
	// pool re-resolves.
	if !p.ship(&shipMsg{contReply: contReply{k: func(ok bool) {
		finish(snap, ok && got)
	}}, fn: func(tok *btree.Owner) {
		snap, got = heap.SnapshotOwnedPage(tok, pid)
	}}) {
		finish(buffer.PageSnapshot{}, false)
	}
}
