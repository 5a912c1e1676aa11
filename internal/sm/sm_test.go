package sm

import (
	"errors"
	"testing"

	"dora/internal/catalog"
	"dora/internal/tuple"
	"dora/internal/wal"
)

// testTable creates a simple (id, name, balance) table.
func testTable(t *testing.T, s *SM) *catalog.Table {
	t.Helper()
	tbl, err := s.CreateTable(TableSpec{
		Name: "accounts",
		Fields: []catalog.Field{
			{Name: "id", Type: tuple.TInt},
			{Name: "name", Type: tuple.TString},
			{Name: "balance", Type: tuple.TInt},
		},
		KeyFields: []string{"id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func acct(id int64, name string, bal int64) tuple.Record {
	return tuple.Record{tuple.I(id), tuple.S(name), tuple.I(bal)}
}

func open(t *testing.T) *SM {
	t.Helper()
	s, err := Open(Options{Frames: 128})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInsertReadCommit(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	txn := s.Begin()
	for i := int64(1); i <= 100; i++ {
		if err := ses.Insert(txn, tbl, acct(i, "acct", i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	txn2 := s.Begin()
	rec, err := ses.Read(txn2, tbl, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rec[2].Int != 420 {
		t.Fatalf("balance = %d", rec[2].Int)
	}
	if s.Commits.Load() != 1 {
		t.Fatalf("commits = %d", s.Commits.Load())
	}
}

func TestDuplicateInsert(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	txn := s.Begin()
	if err := ses.Insert(txn, tbl, acct(1, "a", 0)); err != nil {
		t.Fatal(err)
	}
	err := ses.Insert(txn, tbl, acct(1, "b", 0))
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	_ = s.Commit(txn)
}

func TestUpdateAndMutate(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	txn := s.Begin()
	_ = ses.Insert(txn, tbl, acct(1, "a", 100))
	if err := ses.Mutate(txn, tbl, 1, func(r tuple.Record) tuple.Record {
		r[2] = tuple.I(r[2].Int + 50)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	_ = s.Commit(txn)
	rec, _ := ses.Read(s.Begin(), tbl, 1)
	if rec[2].Int != 150 {
		t.Fatalf("balance = %d", rec[2].Int)
	}
	// Primary key change must be rejected.
	txn2 := s.Begin()
	if err := ses.Update(txn2, tbl, 1, acct(2, "a", 0)); err == nil {
		t.Fatal("update changing PK must fail")
	}
}

func TestDeleteAndNotFound(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	txn := s.Begin()
	_ = ses.Insert(txn, tbl, acct(1, "a", 0))
	if err := ses.Delete(txn, tbl, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Read(txn, tbl, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := ses.Delete(txn, tbl, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	_ = s.Commit(txn)
}

func TestRollbackRestoresState(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	// Committed baseline.
	setup := s.Begin()
	_ = ses.Insert(setup, tbl, acct(1, "keep", 100))
	_ = ses.Insert(setup, tbl, acct(2, "victim", 200))
	if err := s.Commit(setup); err != nil {
		t.Fatal(err)
	}

	// A transaction that inserts, updates, deletes — then rolls back.
	txn := s.Begin()
	_ = ses.Insert(txn, tbl, acct(3, "phantom", 300))
	_ = ses.Update(txn, tbl, 1, acct(1, "keep", 999))
	_ = ses.Delete(txn, tbl, 2)
	if err := s.Rollback(txn); err != nil {
		t.Fatal(err)
	}

	check := s.Begin()
	if _, err := ses.Read(check, tbl, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rolled-back insert visible: %v", err)
	}
	rec, err := ses.Read(check, tbl, 1)
	if err != nil || rec[2].Int != 100 {
		t.Fatalf("rolled-back update persists: %v %v", rec, err)
	}
	rec, err = ses.Read(check, tbl, 2)
	if err != nil || rec[1].Str != "victim" {
		t.Fatalf("rolled-back delete persists: %v %v", rec, err)
	}
	if s.Aborts.Load() != 1 {
		t.Fatalf("aborts = %d", s.Aborts.Load())
	}
}

func TestScanRange(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	txn := s.Begin()
	for i := int64(1); i <= 20; i++ {
		_ = ses.Insert(txn, tbl, acct(i, "x", i))
	}
	_ = s.Commit(txn)
	var keys []int64
	err := ses.ScanRange(s.Begin(), tbl, 5, 10, func(k int64, r tuple.Record) bool {
		keys = append(keys, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 || keys[0] != 5 || keys[5] != 10 {
		t.Fatalf("scan keys: %v", keys)
	}
}

func TestSecondaryIndexMaintained(t *testing.T) {
	s := open(t)
	tbl, err := s.CreateTable(TableSpec{
		Name: "subscriber",
		Fields: []catalog.Field{
			{Name: "s_id", Type: tuple.TInt},
			{Name: "sub_nbr", Type: tuple.TInt},
		},
		KeyFields: []string{"s_id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
		Secondaries: []IndexSpec{{
			Name:   "sub_by_nbr",
			Fields: []string{"sub_nbr"},
			Key:    func(r tuple.Record) int64 { return r[1].Int },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ses := s.Session(0)
	txn := s.Begin()
	_ = ses.Insert(txn, tbl, tuple.Record{tuple.I(1), tuple.I(5001)})
	_ = s.Commit(txn)

	rec, err := ses.ReadByIndex(s.Begin(), tbl, "sub_by_nbr", 5001)
	if err != nil || rec[0].Int != 1 {
		t.Fatalf("secondary lookup: %v %v", rec, err)
	}

	// Update that moves the secondary key.
	txn2 := s.Begin()
	_ = ses.Update(txn2, tbl, 1, tuple.Record{tuple.I(1), tuple.I(6001)})
	_ = s.Commit(txn2)
	if _, err := ses.ReadByIndex(s.Begin(), tbl, "sub_by_nbr", 5001); err == nil {
		t.Fatal("stale secondary entry")
	}
	rec, err = ses.ReadByIndex(s.Begin(), tbl, "sub_by_nbr", 6001)
	if err != nil || rec[0].Int != 1 {
		t.Fatalf("moved secondary entry: %v %v", rec, err)
	}

	// Delete removes the secondary entry; rollback restores it.
	txn3 := s.Begin()
	_ = ses.Delete(txn3, tbl, 1)
	if err := s.Rollback(txn3); err != nil {
		t.Fatal(err)
	}
	rec, err = ses.ReadByIndex(s.Begin(), tbl, "sub_by_nbr", 6001)
	if err != nil || rec[0].Int != 1 {
		t.Fatalf("secondary after rollback: %v %v", rec, err)
	}
}

func TestReadOnlyCommitSkipsForce(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	setup := s.Begin()
	_ = ses.Insert(setup, tbl, acct(1, "a", 0))
	_ = s.Commit(setup)
	forces := s.Log.Stats().Forces
	ro := s.Begin()
	_, _ = ses.Read(ro, tbl, 1)
	_ = s.Commit(ro)
	if s.Log.Stats().Forces != forces {
		t.Fatal("read-only commit forced the log")
	}
}

func TestLogChainPerTxn(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	txn := s.Begin()
	_ = ses.Insert(txn, tbl, acct(1, "a", 0))
	_ = ses.Update(txn, tbl, 1, acct(1, "a", 5))
	_ = s.Commit(txn)
	// Walk the chain backwards from the last record.
	var recs []*wal.Record
	_ = s.Log.Scan(func(r *wal.Record) error {
		if r.TxnID == txn.ID {
			recs = append(recs, r)
		}
		return nil
	})
	if len(recs) != 3 { // insert, update, commit (terminal: no end record)
		t.Fatalf("logged %d records, want 3", len(recs))
	}
	if last := recs[len(recs)-1]; last.Kind != wal.KCommit {
		t.Fatalf("last record is %v, want the commit", last.Kind)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].PrevLSN != recs[i-1].LSN {
			t.Fatalf("chain broken at %d: prev=%d, want %d", i, recs[i].PrevLSN, recs[i-1].LSN)
		}
	}
}
