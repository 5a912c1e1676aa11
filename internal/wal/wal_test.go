package wal

import (
	"path/filepath"
	"testing"
)

// testLog writes this package's format and store tests' streams: it
// frames each record with EncodeInto at the stream offset InitStore
// gives, as the log manager (clog, which imports this package) does,
// and hands the frame straight to the store. sync hardens what was
// written.
type testLog struct {
	store Store
	next  LSN
}

func openLog(t testing.TB, store Store) *testLog {
	t.Helper()
	next, err := InitStore(store)
	if err != nil {
		t.Fatal(err)
	}
	return &testLog{store: store, next: next}
}

func mk(t *testing.T) *testLog { return openLog(t, NewMemStore()) }

// append frames rec at the end of the stream and returns its LSN.
func (l *testLog) append(t testing.TB, rec *Record) LSN {
	t.Helper()
	rec.LSN = l.next
	b := make([]byte, EncodedSize(rec))
	EncodeInto(b, rec)
	if err := l.store.Write(b); err != nil {
		t.Fatal(err)
	}
	l.next += LSN(len(b))
	return rec.LSN
}

func (l *testLog) sync(t testing.TB) {
	t.Helper()
	if err := l.store.Sync(); err != nil {
		t.Fatal(err)
	}
}

// raw returns the store's whole stream image.
func (l *testLog) raw(t testing.TB) []byte {
	t.Helper()
	raw, err := l.store.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// scan decodes the store's stream.
func (l *testLog) scan(t testing.TB, fn func(*Record) error) error {
	return ScanBytes(l.raw(t), fn)
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
		l.append(t, r)
	}
	var got []*Record
	if err := l.scan(t, func(r *Record) error { got = append(got, r); return nil }); err != nil {
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

func TestCrashCopyDropsUnsynced(t *testing.T) {
	store := NewMemStore()
	l := openLog(t, store)
	l.append(t, &Record{Kind: KInsert, TxnID: 1, Redo: []byte("durable")})
	l.sync(t)
	// Record 2 reaches the store but is never synced.
	l.append(t, &Record{Kind: KInsert, TxnID: 2, Redo: []byte("lost")})

	crashed := openLog(t, store.CrashCopy())
	var got []*Record
	if err := crashed.scan(t, func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Redo) != "durable" {
		t.Fatalf("after crash: %d records", len(got))
	}
}

func TestTornTailIgnored(t *testing.T) {
	l := mk(t)
	l.append(t, &Record{Kind: KInsert, TxnID: 1, Redo: []byte("ok")})
	raw := l.raw(t)
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
		lsns = append(lsns, l.append(t, &Record{Kind: KUpdate, TxnID: 1, Key: int64(i), Redo: []byte("payload")}))
	}
	raw := l.raw(t)
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
	l := openLog(t, store)
	lsn1 := l.append(t, &Record{Kind: KCommit, TxnID: 1})
	l.sync(t)
	l2 := openLog(t, store)
	lsn2 := l2.append(t, &Record{Kind: KCommit, TxnID: 2})
	if lsn2 <= lsn1 {
		t.Fatalf("reopened log reused LSN space: %d <= %d", lsn2, lsn1)
	}
	n := 0
	if err := l2.scan(t, func(r *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scanned %d, want 2", n)
	}
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	l := openLog(t, store)
	l.append(t, &Record{Kind: KInsert, TxnID: 9, Key: 1234, Redo: []byte("persist")})
	l.sync(t)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	var got *Record
	if err := openLog(t, store2).scan(t, func(r *Record) error { got = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.TxnID != 9 || got.Key != 1234 || string(got.Redo) != "persist" {
		t.Fatalf("file round trip: %+v", got)
	}
}
