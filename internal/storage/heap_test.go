package storage

import (
	"bytes"
	"errors"
	"testing"

	"dora/internal/buffer"
	"dora/internal/wal"
)

func newHeap(t *testing.T) *Heap {
	t.Helper()
	return NewHeap(buffer.NewPool(64, buffer.NewMemDisk(), nil))
}

func TestRIDPack(t *testing.T) {
	r := RID{Page: 123456, Slot: 789}
	if got := UnpackRID(r.Pack()); got != r {
		t.Fatalf("round trip %v -> %v", r, got)
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	h := newHeap(t)
	rid, err := h.Insert([]byte("record one"), 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Get(rid)
	if err != nil || string(b) != "record one" {
		t.Fatalf("Get: %q %v", b, err)
	}
	if err := h.Update(rid, []byte("record 1!!"), 20); err != nil {
		t.Fatal(err)
	}
	b, _ = h.Get(rid)
	if string(b) != "record 1!!" {
		t.Fatalf("after update: %q", b)
	}
	if err := h.Delete(rid, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Fatal("Get after Delete should fail")
	}
}

func TestInsertSpillsToNewPages(t *testing.T) {
	h := newHeap(t)
	rec := make([]byte, 1024)
	rids := map[RID]bool{}
	for i := 0; i < 100; i++ {
		rec[0] = byte(i)
		rid, err := h.Insert(rec, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if rids[rid] {
			t.Fatalf("duplicate RID %v", rid)
		}
		rids[rid] = true
	}
	if len(h.Pages()) < 10 {
		t.Fatalf("expected >=10 pages for 100KB of records, got %d", len(h.Pages()))
	}
}

func TestScan(t *testing.T) {
	h := newHeap(t)
	want := map[byte]bool{}
	for i := 0; i < 50; i++ {
		if _, err := h.Insert([]byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
		want[byte(i)] = true
	}
	got := map[byte]bool{}
	err := h.Scan(func(rid RID, rec []byte) bool {
		got[rec[0]] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
}

func TestInsertWithLSNOrdering(t *testing.T) {
	h := newHeap(t)
	var sawRID RID
	rid, err := h.InsertWith(0, []byte("x"), func(r RID) uint64 {
		sawRID = r
		return 42
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawRID != rid {
		t.Fatalf("callback saw %v, returned %v", sawRID, rid)
	}
}

func TestUpdateWithBeforeImage(t *testing.T) {
	h := newHeap(t)
	rid, _ := h.Insert([]byte("before"), 1)
	var seen []byte
	err := h.UpdateWith(rid, []byte("after!"), func(before []byte) uint64 {
		seen = append([]byte(nil), before...)
		return 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(seen) != "before" {
		t.Fatalf("before image %q", seen)
	}
	b, _ := h.Get(rid)
	if string(b) != "after!" {
		t.Fatalf("after image %q", b)
	}
}

func TestDeleteWithBeforeImage(t *testing.T) {
	h := newHeap(t)
	rid, _ := h.Insert([]byte("doomed"), 1)
	var seen []byte
	err := h.DeleteWith(rid, func(before []byte) uint64 {
		seen = append([]byte(nil), before...)
		return 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(seen) != "doomed" {
		t.Fatalf("before image %q", seen)
	}
}

// patchRec is the update patch that turns old into new in rid's slot.
func patchRec(rid RID, old, new []byte, lsn uint64) *wal.Record {
	off, redo, undo := wal.Diff(old, new)
	return &wal.Record{Kind: wal.KUpdate, LSN: lsn, Table: 7, Page: rid.Page, Slot: rid.Slot,
		Off: uint16(off), Redo: redo, Undo: undo}
}

func TestRedoIdempotent(t *testing.T) {
	pool := buffer.NewPool(16, buffer.NewMemDisk(), nil)
	h := NewHeap(pool)
	rid, err := h.Insert([]byte("v1"), 100)
	if err != nil {
		t.Fatal(err)
	}
	// Redo with LSN <= page LSN must be a no-op.
	if applied, err := h.RedoPatch(patchRec(rid, []byte("v1"), []byte("v2"), 100)); err != nil || applied {
		t.Fatalf("covered redo: applied %v, err %v", applied, err)
	}
	b, _ := h.Get(rid)
	if string(b) != "v1" {
		t.Fatalf("stale redo applied: %q", b)
	}
	// Redo with newer LSN applies.
	if applied, err := h.RedoPatch(patchRec(rid, []byte("v1"), []byte("v2"), 200)); err != nil || !applied {
		t.Fatalf("fresh redo: applied %v, err %v", applied, err)
	}
	b, _ = h.Get(rid)
	if string(b) != "v2" {
		t.Fatalf("fresh redo not applied: %q", b)
	}
}

// TestRedoPatchLengthChanges grows and shrinks a record through redo
// patches, then undoes them in reverse, checking each image.
func TestRedoPatchLengthChanges(t *testing.T) {
	h := newHeap(t)
	imgs := [][]byte{[]byte("head-tail"), []byte("head-a-much-longer-middle-tail"), []byte("ht"), []byte(""), []byte("x")}
	rid, err := h.Insert(imgs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*wal.Record
	for i := 1; i < len(imgs); i++ {
		r := patchRec(rid, imgs[i-1], imgs[i], uint64(i+1))
		recs = append(recs, r)
		if applied, err := h.RedoPatch(r); err != nil || !applied {
			t.Fatalf("redo %d: applied %v, err %v", i, applied, err)
		}
		if b, _ := h.Get(rid); !bytes.Equal(b, imgs[i]) {
			t.Fatalf("redo %d: got %q, want %q", i, b, imgs[i])
		}
	}
	lsn := uint64(100)
	for i := len(recs) - 1; i >= 0; i-- {
		if err := h.UndoPatchWith(recs[i], func() uint64 { lsn++; return lsn }); err != nil {
			t.Fatalf("undo %d: %v", i, err)
		}
		if b, _ := h.Get(rid); !bytes.Equal(b, imgs[i]) {
			t.Fatalf("undo %d: got %q, want %q", i, b, imgs[i])
		}
	}
}

// TestRedoPatchMismatch: a patch whose pre-image the slot does not hold
// fails with a PatchMismatchError naming the record, for redo and undo,
// and leaves the page unchanged.
func TestRedoPatchMismatch(t *testing.T) {
	h := newHeap(t)
	rid, err := h.Insert([]byte("balance=17"), 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error, lsn uint64) {
		t.Helper()
		var pm *PatchMismatchError
		if !errors.As(err, &pm) || pm.LSN != lsn || pm.Table != 7 || pm.Page != rid.Page || pm.Slot != rid.Slot {
			t.Fatalf("%s: err = %v, want a PatchMismatchError for lsn %d", what, err, lsn)
		}
		if b, _ := h.Get(rid); string(b) != "balance=17" {
			t.Fatalf("%s: page changed to %q", what, b)
		}
	}
	_, err = h.RedoPatch(patchRec(rid, []byte("balance=18"), []byte("balance=19"), 5))
	check("redo", err, 5)
	_, err = h.RedoPatch(patchRec(rid, []byte("balance=17-and-more"), []byte("balance=17-and-less"), 6))
	check("redo past the image end", err, 6)
	logged := false
	err = h.UndoPatchWith(patchRec(rid, []byte("balance=16"), []byte("balance=18"), 7), func() uint64 { logged = true; return 8 })
	check("undo", err, 7)
	if logged {
		t.Fatal("undo logged a compensation for a patch it did not apply")
	}
}

func TestRecordTooLarge(t *testing.T) {
	h := newHeap(t)
	if _, err := h.Insert(make([]byte, 9000), 1); err != ErrRecordTooLarge {
		t.Fatalf("want ErrRecordTooLarge, got %v", err)
	}
}

func TestTombstoneSlotReuseKeepsOtherRecords(t *testing.T) {
	h := newHeap(t)
	a, _ := h.Insert([]byte("aaa"), 1)
	b, _ := h.Insert([]byte("bbb"), 1)
	if err := h.Delete(a, 2); err != nil {
		t.Fatal(err)
	}
	c, _ := h.Insert([]byte("ccc"), 3)
	got, err := h.Get(b)
	if err != nil || !bytes.Equal(got, []byte("bbb")) {
		t.Fatalf("record b damaged: %q %v", got, err)
	}
	got, err = h.Get(c)
	if err != nil || !bytes.Equal(got, []byte("ccc")) {
		t.Fatalf("record c: %q %v", got, err)
	}
}
