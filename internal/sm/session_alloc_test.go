package sm

import (
	"errors"
	"math"
	"testing"

	"dora/internal/btree"
	"dora/internal/catalog"
	"dora/internal/storage"
	"dora/internal/tuple"
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
