package wal

import (
	"path/filepath"
	"testing"
)

// fill appends and syncs n records, returning each record's LSN.
func fill(t *testing.T, l *testLog, n int) []LSN {
	t.Helper()
	lsns := make([]LSN, n)
	for i := 0; i < n; i++ {
		lsns[i] = l.append(t, &Record{Kind: KUpdate, TxnID: uint64(i + 1), Redo: []byte("payload")})
	}
	l.sync(t)
	return lsns
}

func TestTruncatePrefix(t *testing.T) {
	store := NewMemStore()
	l := openLog(t, store)
	lsns := fill(t, l, 20)
	origin := lsns[10]
	if err := Truncate(store, origin); err != nil {
		t.Fatal(err)
	}
	// The store shrank but the stream's LSN space is unchanged: scanning
	// yields the suffix at its original LSNs.
	var got []LSN
	if err := l.scan(t, func(r *Record) error { got = append(got, r.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != origin {
		t.Fatalf("retained %d records from %d, want 10 from %d", len(got), got[0], origin)
	}
	raw, _ := store.Contents()
	o2, _, err := StreamOrigin(raw)
	if err != nil || o2 != origin {
		t.Fatalf("store origin = %d (%v), want %d", o2, err, origin)
	}
	// Appends continue in the same LSN space after truncation.
	next := l.append(t, &Record{Kind: KCommit, TxnID: 99})
	if next < lsns[19] {
		t.Fatalf("post-truncation LSN %d regressed", next)
	}
	l.sync(t)

	// Truncation is idempotent and refuses to pass the stream's end.
	if err := Truncate(store, origin); err != nil {
		t.Fatal(err)
	}
	if err := Truncate(store, l.next+100); err == nil {
		t.Fatal("truncation beyond the stream end accepted")
	}
}

func TestTruncatedStoreReopens(t *testing.T) {
	store := NewMemStore()
	l := openLog(t, store)
	lsns := fill(t, l, 12)
	if err := Truncate(store, lsns[6]); err != nil {
		t.Fatal(err)
	}
	end := l.next
	// Reopen over the truncated stream: LSNs continue where they left off.
	l2 := openLog(t, store)
	if l2.next != end {
		t.Fatalf("reopened next = %d, want %d", l2.next, end)
	}
	n := 0
	if err := l2.scan(t, func(r *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("reopened scan saw %d records, want 6", n)
	}
}

func TestTruncateTail(t *testing.T) {
	store := NewMemStore()
	l := openLog(t, store)
	lsns := fill(t, l, 10)
	cut := lsns[7] // keep records 0..6
	if err := TruncateTail(store, cut); err != nil {
		t.Fatal(err)
	}
	raw, _ := store.Contents()
	origin, body, err := StreamOrigin(raw)
	if err != nil {
		t.Fatal(err)
	}
	if origin+LSN(len(body)) != cut {
		t.Fatalf("stream end = %d, want %d", origin+LSN(len(body)), cut)
	}
	n := 0
	if err := ScanBytes(raw, func(r *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("retained %d records, want 7", n)
	}
	// Tail truncation composes with prefix truncation (a rejoining
	// ex-primary may hold a store truncated on both ends).
	if err := Truncate(store, lsns[3]); err != nil {
		t.Fatal(err)
	}
	raw, _ = store.Contents()
	n = 0
	if err := ScanBytes(raw, func(r *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("doubly-truncated scan saw %d records, want 4", n)
	}
	// A cut at or beyond the stream end is a no-op; one below the origin
	// is an error (that history is gone already).
	if err := TruncateTail(store, l.next+5); err != nil {
		t.Fatalf("no-op tail truncation: %v", err)
	}
	if err := TruncateTail(store, lsns[1]); err == nil {
		t.Fatal("tail truncation below the origin accepted")
	}
}

func TestTruncateFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	l := openLog(t, fs)
	lsns := fill(t, l, 16)
	if err := Truncate(fs, lsns[8]); err != nil {
		t.Fatal(err)
	}
	// The rewrite must survive the file being reopened.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	raw, err := fs2.Contents()
	if err != nil {
		t.Fatal(err)
	}
	origin, _, err := StreamOrigin(raw)
	if err != nil || origin != lsns[8] {
		t.Fatalf("file origin = %d (%v), want %d", origin, err, lsns[8])
	}
	n := 0
	if err := ScanBytes(raw, func(r *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("file scan saw %d records, want 8", n)
	}
}

func TestDecodeStreamStopsAtTear(t *testing.T) {
	store := NewMemStore()
	l := openLog(t, store)
	fill(t, l, 5)
	raw, _ := store.Contents()
	origin, body, err := StreamOrigin(raw)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	consumed, err := DecodeStream(origin, body[:len(body)-3], func(r *Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("decoded %d whole records, want 4", n)
	}
	if consumed >= len(body)-3 {
		t.Fatalf("consumed %d includes the torn record", consumed)
	}
	// A stream whose offsets contradict its origin is rejected outright.
	if _, err := DecodeStream(origin+1, body, func(r *Record) error { return nil }); err == nil {
		t.Fatal("mis-based stream accepted")
	}
}
