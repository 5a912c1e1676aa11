package sm

import (
	"errors"
	"math"
	"testing"

	"dora/internal/btree"
	"dora/internal/catalog"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/wal"
)

// ownedRig builds an accounts table whose primary index is claimed
// whole by one owner token, loaded through that owner's session so every
// row sits on a page stamped to it.
func ownedRig(t *testing.T) (*SM, *catalog.Table, *Session, *btree.Owner) {
	t.Helper()
	s := open(t)
	tbl := testTable(t, s)
	tok := btree.NewOwner()
	tbl.Primary.Partitioned().Claim([]btree.ClaimRange{{Lo: math.MinInt64, Hi: math.MaxInt64, Owner: tok}})
	ses := s.OwnedSession(0, tok)
	load := s.Begin()
	for i := int64(1); i <= 50; i++ {
		if err := ses.Insert(load, tbl, acct(i, "owned", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(load); err != nil {
		t.Fatal(err)
	}
	return s, tbl, ses, tok
}

// TestReadOwnedAllocs: the owner's read of its own key allocates only
// what decoding the record allocates plus GetOwned's copy of the record
// bytes — no ship closure — and takes no frame latch.
func TestReadOwnedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, tbl, ses, tok := ownedRig(t)
	v, err := tbl.Primary.Tree.GetAs(tok, 7)
	if err != nil {
		t.Fatal(err)
	}
	rid := storage.UnpackRID(v)
	if tbl.Heap.StampOwner(rid.Page) != tok {
		t.Fatal("row not on a page stamped to its owner")
	}
	img, err := tbl.Heap.GetOwned(tok, rid)
	if err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(200, func() {
		if _, err := tuple.Decode(img); err != nil {
			t.Fatal(err)
		}
	})
	txn := s.Begin()
	latched := tbl.Heap.OwnedReadsLatched.Load()
	read := testing.AllocsPerRun(200, func() {
		rec, err := ses.Read(txn, tbl, 7)
		if err != nil || rec[2].Int != 7 {
			t.Fatalf("owned read: %v %v", rec, err)
		}
	})
	if read > decode+1 {
		t.Fatalf("owned Session.Read: %.1f allocs, tuple.Decode alone %.1f plus one copy", read, decode)
	}
	if n := tbl.Heap.OwnedReadsLatched.Load() - latched; n != 0 {
		t.Fatalf("%d owned reads fell back to the frame latch", n)
	}
}

// nullLog is a wal.Manager that assigns LSNs and keeps nothing, so an
// allocation count covers the storage manager's write path alone (the
// log manager's own appends are measured in internal/wal/clog).
type nullLog struct{ next wal.LSN }

func (l *nullLog) Append(rec *wal.Record) wal.LSN {
	l.next += wal.LSN(wal.EncodedSize(rec))
	rec.LSN = l.next
	return rec.LSN
}
func (l *nullLog) Force(wal.LSN) error                { return nil }
func (l *nullLog) FlushAll() error                    { return nil }
func (l *nullLog) Durable() wal.LSN                   { return l.next + 1 }
func (l *nullLog) Next() wal.LSN                      { return l.next + 1 }
func (l *nullLog) Scan(func(*wal.Record) error) error { return nil }
func (l *nullLog) Stats() wal.Stats                   { return wal.Stats{} }
func (l *nullLog) Close() error                       { return nil }

// intRig builds an all-integer (id, balance) table over a nullLog whose
// primary index is claimed whole by one owner token. Rows 1..50 are
// loaded through a plain session before the claim, so they sit on
// unstamped pages; rows 101..150 through the owner's session after it,
// so they sit on pages stamped to the owner.
func intRig(t testing.TB) (*SM, *catalog.Table, *Session) {
	t.Helper()
	s, err := Open(Options{Frames: 128, Log: &nullLog{next: wal.LSN(wal.HeaderSize)}})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable(TableSpec{
		Name:      "balances",
		Fields:    []catalog.Field{{Name: "id", Type: tuple.TInt}, {Name: "balance", Type: tuple.TInt}},
		KeyFields: []string{"id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
	})
	if err != nil {
		t.Fatal(err)
	}
	load := func(ses *Session, lo, hi int64) {
		txn := s.Begin()
		for i := lo; i <= hi; i++ {
			if err := ses.Insert(txn, tbl, tuple.Record{tuple.I(i), tuple.I(0)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	load(s.Session(0), 1, 50)
	tok := btree.NewOwner()
	tbl.Primary.Partitioned().Claim([]btree.ClaimRange{{Lo: math.MinInt64, Hi: math.MaxInt64, Owner: tok}})
	ses := s.OwnedSession(0, tok)
	load(ses, 101, 150)
	return s, tbl, ses
}

// stamped reports whether key's row sits on a page stamped to the
// session's owner.
func stamped(t *testing.T, tbl *catalog.Table, ses *Session, key int64) bool {
	t.Helper()
	v, err := tbl.Primary.Tree.GetAs(ses.Owner(), key)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Heap.StampOwner(storage.UnpackRID(v).Page) == ses.Owner()
}

// TestMutateOwnedAllocs: an owner's Mutate of an all-integer record
// allocates only the before image it keeps for undo — on a page stamped
// to the owner (the latch-free pass) and on an unstamped one (the
// latched pass, whose private read copy becomes the undo image).
func TestMutateOwnedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, tbl, ses := intRig(t)
	add := func(r tuple.Record) tuple.Record {
		r[1].Int++
		return r
	}
	for _, c := range []struct {
		name    string
		key     int64
		stamped bool
	}{{"stamped", 107, true}, {"unstamped", 7, false}} {
		if got := stamped(t, tbl, ses, c.key); got != c.stamped {
			t.Fatalf("%s: row %d stamped=%v", c.name, c.key, got)
		}
		txn := s.Begin()
		allocs := testing.AllocsPerRun(200, func() {
			if err := ses.Mutate(txn, tbl, c.key, add); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s owner Mutate: %.1f allocs, want at most 1", c.name, allocs)
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
		rec, err := ses.Read(s.Begin(), tbl, c.key)
		if err != nil || rec[1].Int != 201 {
			t.Fatalf("%s: row %d reads %v %v, want balance 201", c.name, c.key, rec, err)
		}
	}
}

// addBalance is a capture-free modifier for MutateWith: it adds *arg to
// the balance.
func addBalance(r tuple.Record, arg any) tuple.Record {
	r[1].Int += *arg.(*int64)
	return r
}

// TestMutateStaticAllocs: an owner's MutateWith on a stamped page, with a
// package-level modifier and a pointer argument, allocates only the
// before image it keeps for undo — no closure, no boxing of the argument.
func TestMutateStaticAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, tbl, ses := intRig(t)
	const key = 113
	if !stamped(t, tbl, ses, key) {
		t.Fatalf("row %d not on a page stamped to its owner", key)
	}
	delta := new(int64)
	*delta = 3
	txn := s.Begin()
	allocs := testing.AllocsPerRun(200, func() {
		if err := ses.MutateWith(txn, tbl, key, addBalance, delta); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("owner MutateWith: %.1f allocs, want 1 (the undo image)", allocs)
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun runs the body once more than it averages over.
	rec, err := ses.Read(s.Begin(), tbl, key)
	if err != nil || rec[1].Int != 3*201 {
		t.Fatalf("row %d reads %v %v, want balance %d", key, rec, err, 3*201)
	}
}

// TestInsertOwnedAllocs: an owner's insert of an all-integer record
// encodes into the owner's buffer and logs through the transaction's
// record, so it allocates at most one object (in fact only the index and
// page growth a run of inserts amortizes).
func TestInsertOwnedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, tbl, ses := intRig(t)
	txn := s.Begin()
	key := int64(1000)
	rec := tuple.Record{tuple.I(0), tuple.I(5)}
	allocs := testing.AllocsPerRun(200, func() {
		key++
		rec[0].Int = key
		if err := ses.Insert(txn, tbl, rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("owner Insert: %.1f allocs, want at most 1", allocs)
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSessionMutate is one owner Mutate of an all-integer record on
// a page stamped to the owner: the DORA write path a TPC-B balance update
// takes, without the engine around it.
func BenchmarkSessionMutate(b *testing.B) {
	s, tbl, ses := intRig(b)
	add := func(r tuple.Record) tuple.Record {
		r[1].Int++
		return r
	}
	txn := s.Begin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ses.Mutate(txn, tbl, 101+int64(i%50), add); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNotFoundErrors pins the not-found error every session operation
// returns: it matches ErrNotFound and keeps its message text.
func TestNotFoundErrors(t *testing.T) {
	s := open(t)
	tbl, err := s.CreateTable(TableSpec{
		Name: "accounts",
		Fields: []catalog.Field{
			{Name: "id", Type: tuple.TInt},
			{Name: "name", Type: tuple.TString},
			{Name: "balance", Type: tuple.TInt},
		},
		KeyFields: []string{"id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
		Secondaries: []IndexSpec{{
			Name:   "by_balance",
			Fields: []string{"balance"},
			Key:    func(r tuple.Record) int64 { return r[2].Int },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ses := s.Session(0)
	txn := s.Begin()
	check := func(op string, err error, want string) {
		t.Helper()
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: %v does not match ErrNotFound", op, err)
		}
		if err == nil || err.Error() != want {
			t.Errorf("%s: message %q, want %q", op, err, want)
		}
	}
	const row = "sm: key not found: accounts[9]"
	_, err = ses.Read(txn, tbl, 9)
	check("Read", err, row)
	check("Update", ses.Update(txn, tbl, 9, acct(9, "x", 1)), row)
	check("Mutate", ses.Mutate(txn, tbl, 9, func(r tuple.Record) tuple.Record { return r }), row)
	check("Delete", ses.Delete(txn, tbl, 9), row)
	const idx = "sm: key not found: accounts.by_balance[77]"
	_, err = ses.ReadByIndex(txn, tbl, "by_balance", 77)
	check("ReadByIndex", err, idx)
	ses.ReadByIndexAsync(txn, tbl, "by_balance", 77, nil, func(_ tuple.Record, err error) {
		check("ReadByIndexAsync", err, idx)
	})
	ses.ReadAsync(txn, tbl, 9, nil, func(_ tuple.Record, err error) {
		check("ReadAsync", err, row)
	})
}
