package storage

import (
	"bytes"
	"testing"

	"dora/internal/btree"
	"dora/internal/buffer"
	"dora/internal/metrics"
	"dora/internal/page"
	"dora/internal/wal"
)

// ownedRig builds a pool+heap with one record on a page stamped to tok.
func ownedRig(t testing.TB) (*metrics.CriticalSectionStats, *buffer.Pool, *Heap, *btree.Owner, RID) {
	t.Helper()
	cs := &metrics.CriticalSectionStats{}
	pool := buffer.NewPool(64, buffer.NewMemDisk(), nil)
	pool.SetStats(cs)
	h := NewHeap(pool)
	tok := btree.NewOwner()
	rid, err := h.InsertOwnedWith(tok, 0, []byte("v1"), func(RID) uint64 { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	return cs, pool, h, tok, rid
}

// TestOwnedUpdateElidesLatch: an owner update of a stamped page takes no
// frame latch, counts OwnedWrites, and bumps the frame write seq.
func TestOwnedUpdateElidesLatch(t *testing.T) {
	cs, pool, h, tok, rid := ownedRig(t)
	cs.Reset()
	f, err := pool.Fetch(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	seq0 := f.WriteSeq()
	pool.Unpin(f, false)

	var before []byte
	err = h.UpdateOwnedWith(tok, rid, []byte("v2"), func(b []byte) uint64 {
		before = append([]byte(nil), b...)
		return 6
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, []byte("v1")) {
		t.Fatalf("before image = %q", before)
	}
	if cs.FrameLatch.Load() != 0 || cs.FrameLatchWrite.Load() != 0 || cs.Latch.Load() != 0 {
		t.Fatalf("owned update latched: frame=%d write=%d latch=%d",
			cs.FrameLatch.Load(), cs.FrameLatchWrite.Load(), cs.Latch.Load())
	}
	if h.OwnedWrites.Load() != 2 || h.OwnedWritesLatched.Load() != 1 {
		// 1 latched from the fresh-page insert at rig setup, +1 latch-free.
		t.Fatalf("counters: owned=%d latched=%d", h.OwnedWrites.Load(), h.OwnedWritesLatched.Load())
	}
	if b, err := h.GetOwned(tok, rid); err != nil || string(b) != "v2" {
		t.Fatalf("read back: %q %v", b, err)
	}
	g, err := pool.Fetch(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	if g.WriteSeq() == seq0 {
		t.Fatal("owner update did not bump the frame write seq")
	}
	if g.Page.LSN() != 6 {
		t.Fatalf("page LSN = %d, want 6", g.Page.LSN())
	}
	pool.Unpin(g, false)
}

// TestOwnedDeleteAndForeignFallback: owner deletes are latch-free on
// stamped pages; nil-token and foreign-token calls fall back latched and
// are counted in the FrameLatchWrite view.
func TestOwnedDeleteAndForeignFallback(t *testing.T) {
	cs, _, h, tok, rid := ownedRig(t)
	// Second record on a SHARED page (nil token): the delete latches.
	srid, err := h.Insert([]byte("shared"), 6)
	if err != nil {
		t.Fatal(err)
	}
	cs.Reset()
	if err := h.DeleteOwnedWith(nil, srid, func([]byte) uint64 { return 7 }); err != nil {
		t.Fatal(err)
	}
	if cs.FrameLatchWrite.Load() != 1 {
		t.Fatalf("shared delete frame write latches = %d, want 1", cs.FrameLatchWrite.Load())
	}
	// Owner delete on the stamped page: latch-free.
	cs.Reset()
	h.OwnedWrites.Reset()
	h.OwnedWritesLatched.Reset()
	if err := h.DeleteOwnedWith(tok, rid, func([]byte) uint64 { return 8 }); err != nil {
		t.Fatal(err)
	}
	if cs.FrameLatchWrite.Load() != 0 {
		t.Fatalf("owned delete latched: %d", cs.FrameLatchWrite.Load())
	}
	if h.OwnedWrites.Load() != 1 || h.OwnedWritesLatched.Load() != 0 {
		t.Fatalf("counters: owned=%d latched=%d", h.OwnedWrites.Load(), h.OwnedWritesLatched.Load())
	}
	// A FOREIGN token on the stamped page goes latched (the decay case).
	rid2, err := h.InsertOwnedWith(tok, 0, []byte("x"), func(RID) uint64 { return 9 })
	if err != nil {
		t.Fatal(err)
	}
	other := btree.NewOwner()
	cs.Reset()
	h.OwnedWritesLatched.Reset()
	if err := h.UpdateOwnedWith(other, rid2, []byte("y"), func([]byte) uint64 { return 10 }); err != nil {
		t.Fatal(err)
	}
	if cs.FrameLatchWrite.Load() != 1 || h.OwnedWritesLatched.Load() != 1 {
		t.Fatalf("foreign-token write: frameWrite=%d ownedLatched=%d, want 1/1",
			cs.FrameLatchWrite.Load(), h.OwnedWritesLatched.Load())
	}
}

// TestMutateOwnedSinglePass: the read-modify-write applies in one
// latch-free pass, hands the caller a before image it may keep, and logs
// before the bytes change.
func TestMutateOwnedSinglePass(t *testing.T) {
	cs, _, h, tok, rid := ownedRig(t)
	cs.Reset()
	var gotBefore []byte
	err := h.MutateOwnedWith(tok, rid, func(before []byte) ([]byte, error) {
		gotBefore = before
		return []byte("v1+"), nil
	}, func() uint64 {
		if string(gotBefore) != "v1" {
			t.Errorf("before image at log time: %q", gotBefore)
		}
		return 11
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBefore) != "v1" {
		t.Fatalf("kept before image %q changed with the page", gotBefore)
	}
	if cs.FrameLatch.Load() != 0 || cs.Latch.Load() != 0 {
		t.Fatalf("mutate latched: frame=%d latch=%d", cs.FrameLatch.Load(), cs.Latch.Load())
	}
	if b, err := h.GetOwned(tok, rid); err != nil || string(b) != "v1+" {
		t.Fatalf("read back: %q %v", b, err)
	}
}

// TestSnapshotOwnedPage: the owner-side copy is consistent, pins the
// frame, and reports the stamp honestly.
func TestSnapshotOwnedPage(t *testing.T) {
	_, pool, h, tok, rid := ownedRig(t)
	snap, ok := h.SnapshotOwnedPage(tok, rid.Page)
	if !ok {
		t.Fatal("snapshot refused for the stamping owner")
	}
	rec, err := snap.Img.Get(int(rid.Slot))
	if err != nil || string(rec) != "v1" {
		t.Fatalf("snapshot image: %q %v", rec, err)
	}
	// The copy is private: mutating the live page does not change it.
	if err := h.UpdateOwnedWith(tok, rid, []byte("v2"), func([]byte) uint64 { return 13 }); err != nil {
		t.Fatal(err)
	}
	rec, _ = snap.Img.Get(int(rid.Slot))
	if string(rec) != "v1" {
		t.Fatalf("snapshot image mutated under the owner: %q", rec)
	}
	pool.Unpin(snap.Frame, false) // the test plays the harden role

	if _, ok := h.SnapshotOwnedPage(btree.NewOwner(), rid.Page); ok {
		t.Fatal("snapshot granted to a foreign token")
	}
	if _, ok := h.SnapshotOwnedPage(tok, page.ID(9999)); ok {
		t.Fatal("snapshot granted for an unstamped page")
	}
}

// BenchmarkHeapGetOwned is an owner's read of a record on its stamped
// page: a latch-free copy of the record bytes.
func BenchmarkHeapGetOwned(b *testing.B) {
	_, _, h, tok, rid := ownedRig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.GetOwned(tok, rid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapMutateOwned is an owner's read-modify-write of a record
// on its stamped page: one latch-free pass whose only allocation is the
// before image handed to the caller.
func BenchmarkHeapMutateOwned(b *testing.B) {
	_, _, h, tok, rid := ownedRig(b)
	after := []byte("v2")
	lsn := uint64(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := h.MutateOwnedWith(tok, rid, func([]byte) ([]byte, error) {
			return after, nil
		}, func() uint64 {
			lsn++
			return lsn
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapRedoPatch is recovery's redo of a TPC-B balance update: an
// 8-byte same-length patch spliced into the slot in place, under the
// frame latch, with the page-LSN test in front.
func BenchmarkHeapRedoPatch(b *testing.B) {
	h := NewHeap(buffer.NewPool(16, buffer.NewMemDisk(), nil))
	img := make([]byte, 29)
	rid, err := h.Insert(img, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Two patches that flip the balance bytes back and forth.
	var fwd, back [8]byte
	for i := range fwd {
		fwd[i] = 0xA5
	}
	recs := [2]wal.Record{
		{Kind: wal.KUpdate, Table: 3, Page: rid.Page, Slot: rid.Slot, Off: 20, Redo: fwd[:], Undo: back[:]},
		{Kind: wal.KUpdate, Table: 3, Page: rid.Page, Slot: rid.Slot, Off: 20, Redo: back[:], Undo: fwd[:]},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := &recs[i&1]
		r.LSN = uint64(i + 2)
		if _, err := h.RedoPatch(r); err != nil {
			b.Fatal(err)
		}
	}
}
