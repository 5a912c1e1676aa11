package wal

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

func mk(t *testing.T) *Log {
	t.Helper()
	l, err := New(NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	l := mk(t)
	var prev LSN
	for i := 0; i < 100; i++ {
		lsn := l.Append(&Record{Kind: KUpdate, TxnID: 1, Redo: []byte{byte(i)}})
		if lsn <= prev {
			t.Fatalf("LSN %d not > %d", lsn, prev)
		}
		prev = lsn
	}
}

func TestScanRoundTrip(t *testing.T) {
	l := mk(t)
	want := []*Record{
		{Kind: KInsert, TxnID: 1, Table: 3, Page: 7, Slot: 2, Key: 99, Redo: []byte("new")},
		{Kind: KUpdate, TxnID: 1, Table: 3, Page: 7, Slot: 2, Key: 99, Off: 12, Redo: []byte("after"), Undo: []byte("before")},
		{Kind: KCLR, Sub: KUpdate, TxnID: 2, UndoNext: 5, Off: 300, Redo: []byte("comp")},
		{Kind: KCommit, TxnID: 1},
		{Kind: KAbort, TxnID: 2},
		{Kind: KEnd, TxnID: 2},
	}
	for _, r := range want {
		r.PrevLSN = 11
		l.Append(r)
	}
	var got []*Record
	if err := l.Scan(func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Kind != w.Kind || g.Sub != w.Sub || g.TxnID != w.TxnID ||
			g.Table != w.Table || g.Page != w.Page || g.Slot != w.Slot ||
			g.Key != w.Key || g.UndoNext != w.UndoNext || g.Off != w.Off || g.PrevLSN != 11 {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, g, w)
		}
		if string(g.Redo) != string(w.Redo) || string(g.Undo) != string(w.Undo) {
			t.Fatalf("record %d images mismatch", i)
		}
		if g.LSN != w.LSN {
			t.Fatalf("record %d LSN %d, appended as %d", i, g.LSN, w.LSN)
		}
	}
}

func TestForceAdvancesDurable(t *testing.T) {
	l := mk(t)
	lsn := l.Append(&Record{Kind: KCommit, TxnID: 1})
	if l.Durable() > lsn {
		t.Fatal("record durable before Force")
	}
	if err := l.Force(lsn); err != nil {
		t.Fatal(err)
	}
	if l.Durable() <= lsn {
		t.Fatalf("Durable = %d, want > %d", l.Durable(), lsn)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	l := mk(t)
	const n = 32
	lsns := make([]LSN, n)
	for i := range lsns {
		lsns[i] = l.Append(&Record{Kind: KCommit, TxnID: uint64(i)})
	}
	var wg sync.WaitGroup
	for _, lsn := range lsns {
		wg.Add(1)
		go func(lsn LSN) {
			defer wg.Done()
			if err := l.Force(lsn); err != nil {
				t.Error(err)
			}
		}(lsn)
	}
	wg.Wait()
	if l.GroupedCommits.Load() == 0 {
		t.Fatal("expected at least one grouped commit among 32 concurrent forces")
	}
}

func TestCrashCopyDropsUnsynced(t *testing.T) {
	store := NewMemStore()
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := l.Append(&Record{Kind: KInsert, TxnID: 1, Redo: []byte("durable")})
	if err := l.Force(a); err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{Kind: KInsert, TxnID: 2, Redo: []byte("lost")})
	// Note: record 2 is appended but never forced; and never written.

	crashed := store.CrashCopy()
	l2, err := New(crashed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Record
	if err := l2.Scan(func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Redo) != "durable" {
		t.Fatalf("after crash: %d records", len(got))
	}
}

func TestTornTailIgnored(t *testing.T) {
	l := mk(t)
	l.Append(&Record{Kind: KInsert, TxnID: 1, Redo: []byte("ok")})
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	raw, _ := l.store.Contents()
	// Simulate a torn write: a half-record at the tail.
	raw = append(raw, 0xFF, 0x00, 0x00, 0x00, 0x01, 0x02)
	n := 0
	if err := ScanBytes(raw, func(r *Record) error { n++; return nil }); err != nil {
		t.Fatalf("ScanBytes on torn log: %v", err)
	}
	if n != 1 {
		t.Fatalf("scanned %d, want 1", n)
	}
}

func TestCorruptRecordRejectedMidStream(t *testing.T) {
	l := mk(t)
	var lsns []LSN
	for i := 0; i < 10; i++ {
		lsns = append(lsns, l.Append(&Record{Kind: KUpdate, TxnID: 1, Key: int64(i), Redo: []byte("payload")}))
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	raw, _ := l.store.Contents()
	// Corrupt a payload byte of the 6th record: its CRC check must fail
	// and the scan must stop before delivering it.
	mid := int(lsns[5])
	raw[mid+16] ^= 0xA5
	n := 0
	if err := ScanBytes(raw, func(r *Record) error {
		if r.LSN >= lsns[5] {
			t.Fatalf("corrupt record %d delivered", r.LSN)
		}
		n++
		return nil
	}); err != nil {
		t.Fatalf("scan over corrupted log: %v", err)
	}
	if n != 5 {
		t.Fatalf("delivered %d records before corruption, want 5", n)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	store := NewMemStore()
	l, _ := New(store, nil)
	lsn1 := l.Append(&Record{Kind: KCommit, TxnID: 1})
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	l2, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn2 := l2.Append(&Record{Kind: KCommit, TxnID: 2})
	if lsn2 <= lsn1 {
		t.Fatalf("reopened log reused LSN space: %d <= %d", lsn2, lsn1)
	}
	n := 0
	if err := l2.Scan(func(r *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scanned %d, want 2", n)
	}
}

// failSyncStore fails Sync on demand, simulating a dying log device.
type failSyncStore struct {
	*MemStore
	fail bool
}

func (s *failSyncStore) Sync() error {
	if s.fail {
		return errors.New("device failure")
	}
	return s.MemStore.Sync()
}

func TestForceFailureIsSticky(t *testing.T) {
	store := &failSyncStore{MemStore: NewMemStore()}
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := l.Durable()
	store.fail = true
	lsn := l.Append(&Record{Kind: KCommit, TxnID: 1})
	if err := l.Force(lsn); err == nil {
		t.Fatal("force over failing store must error")
	}
	// The device recovers, but the log must stay dead: a commit reported
	// aborted on the first failure must never be hardened by a later
	// transaction's force.
	store.fail = false
	lsn2 := l.Append(&Record{Kind: KCommit, TxnID: 2})
	if err := l.Force(lsn2); err == nil {
		t.Fatal("force after sticky failure must keep erroring")
	}
	if d := l.Durable(); d != before {
		t.Fatalf("durable advanced from %d to %d over a dead log", before, d)
	}
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn := l.Append(&Record{Kind: KInsert, TxnID: 9, Key: 1234, Redo: []byte("persist")})
	if err := l.Force(lsn); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	l2, err := New(store2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got *Record
	if err := l2.Scan(func(r *Record) error { got = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.TxnID != 9 || got.Key != 1234 || string(got.Redo) != "persist" {
		t.Fatalf("file round trip: %+v", got)
	}
}

func TestConcurrentAppendScan(t *testing.T) {
	l := mk(t)
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(&Record{Kind: KUpdate, TxnID: uint64(w + 1), Key: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	n := 0
	seen := map[LSN]bool{}
	if err := l.Scan(func(r *Record) error {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != writers*per {
		t.Fatalf("scanned %d, want %d", n, writers*per)
	}
}
