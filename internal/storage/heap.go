// Package storage implements heap files on top of the buffer pool:
// collections of slotted pages addressed by record ids (RIDs). The
// storage-manager facade (internal/sm) combines heaps with B+tree
// indexes, the WAL and a lock manager into the full substrate.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"dora/internal/btree"
	"dora/internal/buffer"
	"dora/internal/metrics"
	"dora/internal/page"
	"dora/internal/wal"
)

// RID identifies a record: a page and a slot within it.
type RID struct {
	Page page.ID
	Slot uint16
}

// Pack encodes the RID into a uint64 for storage in B+tree values.
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID decodes a packed RID.
func UnpackRID(v uint64) RID {
	return RID{Page: page.ID(v >> 16), Slot: uint16(v & 0xFFFF)}
}

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// ErrRecordTooLarge reports a record that cannot fit in any page.
var ErrRecordTooLarge = errors.New("storage: record larger than page")

// heapStripes is the number of free-space stripes per heap. Each DORA
// partition worker (and each conventional client thread) hashes to one
// stripe, so concurrent inserters keep private fill hints and page lists
// instead of fighting over a single heap mutex.
const heapStripes = 8

// heapStripe is one independently-latched slice of the heap's page set.
type heapStripe struct {
	mu    sync.Mutex
	pages []page.ID
	// fillHint is the index in pages of the page most recently found to
	// have free space; inserts try it first.
	fillHint int
}

// Heap is a heap file: an unordered collection of records in slotted
// pages. Heap methods latch pages internally; callers provide isolation
// through the lock protocol (conventional engine) or partition ownership
// (DORA). The free-space bookkeeping is striped per inserting worker.
//
// Pages can additionally be STAMPED with a partition worker's ownership
// token (ownership.go): stamped pages leave the shared stripes, accept
// mutations only on the owner's thread, and serve that thread's record
// reads without the frame latch.
type Heap struct {
	pool    *buffer.Pool
	stripes [heapStripes]heapStripe

	// stamps maps page.ID -> *btree.Owner for owner-stamped pages;
	// owned maps *btree.Owner -> *ownedPages (the token's page list).
	stamps sync.Map
	owned  sync.Map

	// OwnedReads counts record reads performed with an ownership token
	// (aligned reads on the owner's thread); OwnedReadsLatched is the
	// subset that still took the frame latch because the page is not
	// (yet) stamped to the reader. Their ratio is the decay signal the
	// maintenance daemon watches and its tests' convergence criterion:
	// it falls to ~0 as migration drains.
	OwnedReads        metrics.Counter
	OwnedReadsLatched metrics.Counter
	// OwnedWrites / OwnedWritesLatched are the mutation-side twins:
	// owner-thread record mutations, and the subset
	// that still took the exclusive frame latch — because the page is
	// not stamped to the writer or the frame is mid-load.
	OwnedWrites        metrics.Counter
	OwnedWritesLatched metrics.Counter
}

// noteLatchedWrite classifies a frame-latch acquisition taken to MUTATE a
// heap record (the CriticalSectionStats FrameLatch/FrameLatchWrite view —
// the residual class the latch-free owner write path retires).
func (h *Heap) noteLatchedWrite() {
	if cs := h.pool.Stats(); cs != nil {
		cs.FrameLatch.Inc()
		cs.FrameLatchWrite.Inc()
	}
}

// NewHeap returns an empty heap over pool.
func NewHeap(pool *buffer.Pool) *Heap { return &Heap{pool: pool} }

func stripeFor(worker int) int {
	return ((worker % heapStripes) + heapStripes) % heapStripes
}

// Pages returns a snapshot of the heap's page ids (scan support),
// covering both the shared stripes and every token's owned pages.
func (h *Heap) Pages() []page.ID {
	var out []page.ID
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		out = append(out, st.pages...)
		st.mu.Unlock()
	}
	h.owned.Range(func(_, v any) bool {
		op := v.(*ownedPages)
		op.mu.Lock()
		out = append(out, op.pages...)
		op.mu.Unlock()
		return true
	})
	return out
}

// Insert stores rec and stamps the page with lsn, returning the new RID.
func (h *Heap) Insert(rec []byte, lsn uint64) (RID, error) {
	return h.InsertWith(0, rec, func(RID) uint64 { return lsn })
}

// InsertWith stores rec, invoking mkLSN with the chosen RID while the
// page latch is held and stamping the page with the returned LSN. This
// lets the storage manager append the log record *before* the modified
// page can reach disk (write-ahead rule) without exposing a half-placed
// record. worker selects the free-space stripe; inserts by the same
// worker chase the same fill hint. On a hint miss the insert goes
// straight to a fresh page — one stripe-mutex round to read the hint, one
// to register the new page, never a rescan of old pages in between.
func (h *Heap) InsertWith(worker int, rec []byte, mkLSN func(RID) uint64) (RID, error) {
	if len(rec) > page.Size-page.HeaderSize-8 {
		return RID{}, ErrRecordTooLarge
	}
	st := &h.stripes[stripeFor(worker)]
	st.mu.Lock()
	var hint page.ID
	hasHint := len(st.pages) > 0
	if hasHint {
		hint = st.pages[st.fillHint]
	}
	st.mu.Unlock()

	if hasHint {
		rid, ok, err := h.tryInsertWith(hint, nil, rec, mkLSN)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
	}
	f, err := h.pool.NewPage()
	if err != nil {
		return RID{}, err
	}
	h.noteLatchedWrite()
	f.Latch.Lock()
	f.BumpWriteSeq()
	slot, err := f.Page.Insert(rec)
	if err != nil {
		f.Latch.Unlock()
		h.pool.Unpin(f, false)
		return RID{}, err
	}
	rid := RID{Page: f.ID(), Slot: uint16(slot)}
	if lsn := mkLSN(rid); lsn != 0 {
		f.Page.SetLSN(lsn)
	}
	f.MarkDirty()
	f.Latch.Unlock()
	h.pool.Unpin(f, true)

	st.mu.Lock()
	st.pages = append(st.pages, rid.Page)
	st.fillHint = len(st.pages) - 1
	st.mu.Unlock()
	return rid, nil
}

// tryInsertWith attempts an insert into pid. expect is the page stamp
// the caller assumes (nil for the shared striped path); it is re-checked
// under the frame latch, so an insert racing a concurrent TryStamp of
// its fill-hint page backs off instead of landing a foreign record on a
// freshly owner-stamped page.
//
// When expect is the CALLER'S own token (owner-thread insert onto its
// stamped fill page) the exclusive latch is elided: the stamp cannot
// change under us — only the owner's own thread unstamps, and that is
// this thread — and every other mutator of a stamped page either is this
// thread too or backs off under the latch without touching bytes.
func (h *Heap) tryInsertWith(pid page.ID, expect *btree.Owner, rec []byte, mkLSN func(RID) uint64) (RID, bool, error) {
	f, err := h.pool.Fetch(pid)
	if err != nil {
		return RID{}, false, err
	}
	if expect != nil && h.StampOwner(pid) == expect && !f.Loading() {
		f.BumpWriteSeq()
		slot, err := f.Page.Insert(rec)
		if err != nil {
			h.pool.Unpin(f, false)
			if errors.Is(err, page.ErrPageFull) {
				return RID{}, false, nil
			}
			return RID{}, false, err
		}
		h.OwnedWrites.Inc()
		rid := RID{Page: pid, Slot: uint16(slot)}
		if lsn := mkLSN(rid); lsn != 0 {
			f.Page.SetLSN(lsn)
		}
		f.MarkDirty()
		h.pool.Unpin(f, true)
		return rid, true, nil
	}
	h.noteLatchedWrite()
	f.Latch.Lock()
	if h.StampOwner(pid) != expect {
		f.Latch.Unlock()
		h.pool.Unpin(f, false)
		return RID{}, false, nil
	}
	f.BumpWriteSeq()
	slot, err := f.Page.Insert(rec)
	if err == nil {
		if expect != nil {
			h.OwnedWrites.Inc()
			h.OwnedWritesLatched.Inc()
		}
		rid := RID{Page: pid, Slot: uint16(slot)}
		// An unlogged insert (mkLSN == 0) must not regress the page LSN
		// below updates that were logged — recovery's redo-skip and the
		// WAL-before-data force both compare against it.
		if lsn := mkLSN(rid); lsn != 0 {
			f.Page.SetLSN(lsn)
		}
		f.MarkDirty()
		f.Latch.Unlock()
		h.pool.Unpin(f, true)
		return rid, true, nil
	}
	f.Latch.Unlock()
	h.pool.Unpin(f, false)
	if errors.Is(err, page.ErrPageFull) {
		return RID{}, false, nil
	}
	return RID{}, false, err
}

// UpdateWith rewrites the record at rid in place; mkLSN receives the
// before image (aliasing the page; it must copy) while the latch is held
// and returns the LSN to stamp.
func (h *Heap) UpdateWith(rid RID, rec []byte, mkLSN func(before []byte) uint64) error {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	h.noteLatchedWrite()
	f.Latch.Lock()
	old, err := f.Page.Get(int(rid.Slot))
	if err != nil {
		f.Latch.Unlock()
		h.pool.Unpin(f, false)
		return err
	}
	// The log record must not be written unless the update will apply.
	if !f.Page.CanUpdate(int(rid.Slot), len(rec)) {
		f.Latch.Unlock()
		h.pool.Unpin(f, false)
		return page.ErrPageFull
	}
	lsn := mkLSN(old)
	f.BumpWriteSeq()
	if err = f.Page.Update(int(rid.Slot), rec); err != nil {
		f.Latch.Unlock()
		h.pool.Unpin(f, false)
		return err
	}
	f.Page.SetLSN(lsn)
	f.MarkDirty()
	f.Latch.Unlock()
	h.pool.Unpin(f, true)
	return nil
}

// DeleteWith tombstones the record at rid; mkLSN receives the before
// image (aliasing the page; it must copy) and returns the LSN to stamp.
func (h *Heap) DeleteWith(rid RID, mkLSN func(before []byte) uint64) error {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	h.noteLatchedWrite()
	f.Latch.Lock()
	old, err := f.Page.Get(int(rid.Slot))
	if err != nil {
		f.Latch.Unlock()
		h.pool.Unpin(f, false)
		return err
	}
	lsn := mkLSN(old)
	f.BumpWriteSeq()
	if err = f.Page.Delete(int(rid.Slot)); err != nil {
		f.Latch.Unlock()
		h.pool.Unpin(f, false)
		return err
	}
	f.Page.SetLSN(lsn)
	f.MarkDirty()
	f.Latch.Unlock()
	h.pool.Unpin(f, true)
	return nil
}

// RedoInsert replays an insert on a specific page during recovery,
// verifying that the record lands in the slot the log recorded.
func (h *Heap) RedoInsert(rid RID, rec []byte, lsn uint64) error {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(f, true)
	f.Latch.Lock()
	defer f.Latch.Unlock()
	if f.Page.LSN() >= lsn {
		return nil // already applied
	}
	slot, err := f.Page.Insert(rec)
	if err != nil {
		return fmt.Errorf("storage: redo insert on page %d: %w", rid.Page, err)
	}
	if uint16(slot) != rid.Slot {
		return fmt.Errorf("storage: redo insert landed in slot %d, log says %d", slot, rid.Slot)
	}
	f.Page.SetLSN(lsn)
	f.MarkDirty()
	return nil
}

// Get returns a copy of the record at rid (the shared latched path;
// owner threads use GetOwned).
func (h *Heap) Get(rid RID) ([]byte, error) { return h.GetOwned(nil, rid) }

// Update rewrites the record at rid in place and stamps lsn. If the new
// image no longer fits the page, ErrPageFull is returned and the caller
// must relocate (delete + insert).
func (h *Heap) Update(rid RID, rec []byte, lsn uint64) error {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	h.noteLatchedWrite()
	f.Latch.Lock()
	f.BumpWriteSeq()
	err = f.Page.Update(int(rid.Slot), rec)
	if err == nil {
		if lsn != 0 {
			f.Page.SetLSN(lsn)
		}
		f.MarkDirty()
	}
	f.Latch.Unlock()
	h.pool.Unpin(f, err == nil)
	return err
}

// PatchMismatchError reports an update patch whose pre-image is not what
// the page holds in its slot: the page is not the state the log record
// was written against (a lost or stale page write, or a corrupt page). It
// is never repaired or skipped.
type PatchMismatchError struct {
	Table uint32
	Page  page.ID
	Slot  uint16
	LSN   uint64 // the record whose patch does not apply
}

func (e *PatchMismatchError) Error() string {
	return fmt.Sprintf("storage: patch of lsn %d does not match table %d page %d slot %d", e.LSN, e.Table, e.Page, e.Slot)
}

// RedoPatch replays an update patch — a KUpdate, or a KCLR compensating
// one — idempotently via the page LSN, and reports whether it applied. A
// record the page LSN already covers is neither spliced nor verified;
// otherwise the slot's bytes at r.Off must equal r.Undo, or a
// *PatchMismatchError is returned.
func (h *Heap) RedoPatch(r *wal.Record) (bool, error) {
	f, err := h.pool.Fetch(r.Page)
	if err != nil {
		return false, err
	}
	defer h.pool.Unpin(f, true)
	f.Latch.Lock()
	defer f.Latch.Unlock()
	if f.Page.LSN() >= r.LSN {
		return false, nil
	}
	cur, err := slotHolding(&f.Page, r, r.Undo)
	if err != nil {
		return false, err
	}
	if err := splice(&f.Page, r.Slot, cur, int(r.Off), r.Redo, len(r.Undo)); err != nil {
		return false, err
	}
	f.Page.SetLSN(r.LSN)
	f.MarkDirty()
	return true, nil
}

// UndoPatchWith applies the inverse of r's update patch — the slot's
// bytes at r.Off must equal r.Redo, and become r.Undo — for restart undo
// of a loser. mkLSN logs the compensation before the bytes change and
// returns the LSN to stamp.
func (h *Heap) UndoPatchWith(r *wal.Record, mkLSN func() uint64) error {
	f, err := h.pool.Fetch(r.Page)
	if err != nil {
		return err
	}
	h.noteLatchedWrite()
	f.Latch.Lock()
	defer f.Latch.Unlock()
	cur, err := slotHolding(&f.Page, r, r.Redo)
	if err == nil && !f.Page.CanUpdate(int(r.Slot), len(cur)+len(r.Undo)-len(r.Redo)) {
		// The log record must not be written unless the update will apply.
		err = page.ErrPageFull
	}
	if err != nil {
		h.pool.Unpin(f, false)
		return err
	}
	lsn := mkLSN()
	f.BumpWriteSeq()
	if err := splice(&f.Page, r.Slot, cur, int(r.Off), r.Undo, len(r.Redo)); err != nil {
		h.pool.Unpin(f, false)
		return err
	}
	f.Page.SetLSN(lsn)
	f.MarkDirty()
	h.pool.Unpin(f, true)
	return nil
}

// slotHolding returns the image in r's slot after checking that it holds
// pre at r.Off — the pre-image the patch is valid against.
func slotHolding(p *page.Page, r *wal.Record, pre []byte) ([]byte, error) {
	cur, err := p.Get(int(r.Slot))
	if err != nil {
		return nil, fmt.Errorf("storage: patch: %w", err)
	}
	off := int(r.Off)
	if off+len(pre) > len(cur) || !bytes.Equal(cur[off:off+len(pre)], pre) {
		return nil, mismatch(r)
	}
	return cur, nil
}

// splice replaces the cut bytes at off of cur, the image in slot, with
// ins. A same-length patch rewrites the bytes in place; a length-changing
// one rebuilds the image in a stack buffer and rewrites the slot.
func splice(p *page.Page, slot uint16, cur []byte, off int, ins []byte, cut int) error {
	if len(ins) == cut {
		copy(cur[off:], ins)
		return nil
	}
	var buf [page.Size]byte
	if err := p.Update(int(slot), wal.Splice(buf[:0], cur, off, ins, cut)); err != nil {
		return fmt.Errorf("storage: patch: %w", err)
	}
	return nil
}

func mismatch(r *wal.Record) error {
	return &PatchMismatchError{Table: r.Table, Page: r.Page, Slot: r.Slot, LSN: r.LSN}
}

// Delete tombstones the record at rid.
func (h *Heap) Delete(rid RID, lsn uint64) error {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	h.noteLatchedWrite()
	f.Latch.Lock()
	f.BumpWriteSeq()
	err = f.Page.Delete(int(rid.Slot))
	if err == nil {
		if lsn != 0 {
			f.Page.SetLSN(lsn)
		}
		f.MarkDirty()
	}
	f.Latch.Unlock()
	h.pool.Unpin(f, err == nil)
	return err
}

// RedoDelete replays a delete during recovery (idempotent via page LSN).
func (h *Heap) RedoDelete(rid RID, lsn uint64) error {
	f, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(f, true)
	f.Latch.Lock()
	defer f.Latch.Unlock()
	if f.Page.LSN() >= lsn {
		return nil
	}
	if err := f.Page.Delete(int(rid.Slot)); err != nil {
		return fmt.Errorf("storage: redo delete: %w", err)
	}
	f.Page.SetLSN(lsn)
	f.MarkDirty()
	return nil
}

// AttachPage registers an existing page id with the heap (recovery: the
// heap page set is rebuilt from the log). Attached pages stripe by page
// id — deterministic, so the dedup check only needs one stripe.
func (h *Heap) AttachPage(pid page.ID) {
	st := &h.stripes[int(uint64(pid))%heapStripes]
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, p := range st.pages {
		if p == pid {
			return
		}
	}
	st.pages = append(st.pages, pid)
}

// Scan invokes fn with a copy of every live record and its RID, until fn
// returns false. Scan reads under the shared frame latch, which no longer
// orders it against OWNER mutations of stamped pages (those are
// latch-free): callers must not scan while owner mutators are running.
// Its callers — recovery, integrity checks, quiesced tooling — satisfy
// this; live traffic reads records through sessions, whose operations
// ship to the owning threads instead.
func (h *Heap) Scan(fn func(rid RID, rec []byte) bool) error {
	for _, pid := range h.Pages() {
		f, err := h.pool.Fetch(pid)
		if err != nil {
			return err
		}
		f.Latch.RLock()
		n := f.Page.NumSlots()
		type item struct {
			rid RID
			rec []byte
		}
		items := make([]item, 0, n)
		for s := 0; s < n; s++ {
			if f.Page.Deleted(s) {
				continue
			}
			b, err := f.Page.Get(s)
			if err != nil {
				continue
			}
			items = append(items, item{RID{pid, uint16(s)}, append([]byte(nil), b...)})
		}
		f.Latch.RUnlock()
		h.pool.Unpin(f, false)
		for _, it := range items {
			if !fn(it.rid, it.rec) {
				return nil
			}
		}
	}
	return nil
}
