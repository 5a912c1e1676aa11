package sm

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"dora/internal/btree"
	"dora/internal/catalog"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/wal"
)

// Tests of the owner write path's reusable buffers (writeScratch): a
// record image written through them must be copied everywhere it has to
// outlive the call — the undo list, the log, the page — before the next
// write on the same thread overwrites the buffers.

// scratchTable creates an (id, name, balance) table with a secondary
// index on balance, so updates that move the balance also exercise the
// secondary re-pointing (and its decode of the before image).
func scratchTable(t *testing.T, s *SM) *catalog.Table {
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
		Secondaries: []IndexSpec{{
			Name:   "by_balance",
			Fields: []string{"balance"},
			Key:    func(r tuple.Record) int64 { return r[2].Int },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// claimAll hands tbl's whole primary index to a fresh owner token and
// returns that owner's session. The test goroutine then plays the owner's
// thread.
func claimAll(s *SM, tbl *catalog.Table) *Session {
	tok := btree.NewOwner()
	tbl.Primary.Partitioned().Claim([]btree.ClaimRange{{Lo: math.MinInt64, Hi: math.MaxInt64, Owner: tok}})
	return s.OwnedSession(0, tok)
}

// loadAccounts inserts rows 1..n with balance 10*id and commits.
func loadAccounts(t *testing.T, s *SM, ses *Session, tbl *catalog.Table, n int64) {
	t.Helper()
	txn := s.Begin()
	for i := int64(1); i <= n; i++ {
		if err := ses.Insert(txn, tbl, acct(i, "orig", 10*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
}

// addTo returns a Mutate callback adding d to the balance and renaming
// the row, so the after image differs in length from the before image.
func addTo(t *testing.T, key, d int64, name string) func(tuple.Record) tuple.Record {
	return func(r tuple.Record) tuple.Record {
		if r[0].Int != key {
			t.Errorf("Mutate of %d handed row %v", key, r)
		}
		r[1] = tuple.S(name)
		r[2] = tuple.I(r[2].Int + d)
		return r
	}
}

// rowImage returns the encoded record stored under key.
func rowImage(t *testing.T, tbl *catalog.Table, ses *Session, key int64) []byte {
	t.Helper()
	v, err := tbl.Primary.Tree.GetAs(ses.Owner(), key)
	if err != nil {
		t.Fatal(err)
	}
	img, err := tbl.Heap.GetOwned(ses.Owner(), storage.UnpackRID(v))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestWriteScratchRollback: one transaction writes key A, then B, then
// A again on the same owner — every write reuses the owner's buffers —
// and rolls back. Every row, and the secondary index, must read its
// original value.
func TestWriteScratchRollback(t *testing.T) {
	s := open(t)
	tbl := scratchTable(t, s)
	ses := claimAll(s, tbl)
	loadAccounts(t, s, ses, tbl, 10)

	txn := s.Begin()
	steps := []error{
		ses.Mutate(txn, tbl, 3, addTo(t, 3, 100, "a-first")),
		ses.Mutate(txn, tbl, 5, addTo(t, 5, 200, "b-renamed-longer")),
		ses.Mutate(txn, tbl, 3, addTo(t, 3, 1000, "a")),
		ses.Update(txn, tbl, 7, acct(7, "updated", 7777)),
		ses.Insert(txn, tbl, acct(11, "new", 110)),
		ses.Delete(txn, tbl, 9),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := s.RollbackAs(ses.Owner(), txn); err != nil {
		t.Fatal(err)
	}
	check := s.Begin()
	for i := int64(1); i <= 10; i++ {
		rec, err := ses.Read(check, tbl, i)
		if err != nil || !rec.Equal(acct(i, "orig", 10*i)) {
			t.Fatalf("row %d after rollback: %v %v", i, rec, err)
		}
		rec, err = ses.ReadByIndex(check, tbl, "by_balance", 10*i)
		if err != nil || rec[0].Int != i {
			t.Fatalf("by_balance[%d] after rollback: %v %v", 10*i, rec, err)
		}
	}
	if _, err := ses.Read(check, tbl, 11); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rolled-back insert still readable: %v", err)
	}
	for _, moved := range []int64{130, 1130, 250, 7777} {
		if _, err := ses.ReadByIndex(check, tbl, "by_balance", moved); !errors.Is(err, ErrNotFound) {
			t.Fatalf("by_balance[%d] survived rollback: %v", moved, err)
		}
	}
}

// TestWriteScratchCommitRecover: a committed transaction that reuses the
// owner's buffers logs, for every update, the patch that turns the page
// image before the write into the one it left (and for the insert, the
// image it left), and a crash restart from the synced log reproduces the
// live state.
func TestWriteScratchCommitRecover(t *testing.T) {
	rig := newRig()
	s := rig.open(t)
	tbl := scratchTable(t, s)
	ses := claimAll(s, tbl)
	loadAccounts(t, s, ses, tbl, 10)

	type write struct {
		key           int64
		before, after []byte
	}
	var writes []write
	txn := s.Begin()
	do := func(key int64, op func() error) {
		t.Helper()
		var before []byte
		if key != 11 {
			before = append([]byte(nil), rowImage(t, tbl, ses, key)...)
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		writes = append(writes, write{key, before, append([]byte(nil), rowImage(t, tbl, ses, key)...)})
	}
	do(3, func() error { return ses.Mutate(txn, tbl, 3, addTo(t, 3, 100, "a-first")) })
	do(5, func() error { return ses.Mutate(txn, tbl, 5, addTo(t, 5, 200, "b-renamed-longer")) })
	do(3, func() error { return ses.Mutate(txn, tbl, 3, addTo(t, 3, 1000, "a")) })
	do(7, func() error { return ses.Update(txn, tbl, 7, acct(7, "updated", 7777)) })
	do(11, func() error { return ses.Insert(txn, tbl, acct(11, "new", 110)) })
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}

	var logged []*wal.Record
	if err := s.Log.Scan(func(r *wal.Record) error {
		if r.TxnID == txn.ID && (r.Kind == wal.KUpdate || r.Kind == wal.KInsert) {
			logged = append(logged, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(writes) {
		t.Fatalf("%d logged writes, want %d", len(logged), len(writes))
	}
	for i, w := range writes {
		r := logged[i]
		ok := r.Key == w.key
		if r.Kind == wal.KInsert {
			ok = ok && bytes.Equal(r.Redo, w.after)
		} else {
			// An update logs the patch of the bytes that changed: it must
			// turn the before image into the after image and back.
			off, redo, undo := wal.Diff(w.before, w.after)
			ok = ok && int(r.Off) == off && bytes.Equal(r.Redo, redo) && bytes.Equal(r.Undo, undo) &&
				bytes.Equal(wal.Splice(nil, w.before, int(r.Off), r.Redo, len(r.Undo)), w.after) &&
				bytes.Equal(wal.Splice(nil, w.after, int(r.Off), r.Undo, len(r.Redo)), w.before)
		}
		if !ok {
			t.Fatalf("write %d (key %d): logged off %d redo %x undo %x, page went %x -> %x",
				i, w.key, r.Off, r.Redo, r.Undo, w.before, w.after)
		}
	}

	live := map[int64]tuple.Record{}
	for i := int64(1); i <= 11; i++ {
		rec, err := ses.Read(s.Begin(), tbl, i)
		if err != nil {
			t.Fatal(err)
		}
		live[i] = rec
	}
	s2 := rig.crash(t)
	tbl2 := scratchTable(t, s2)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ses2 := s2.Session(0)
	for i, want := range live {
		rec, err := ses2.Read(s2.Begin(), tbl2, i)
		if err != nil || !rec.Equal(want) {
			t.Fatalf("row %d after restart: %v %v, live %v", i, rec, err, want)
		}
		rec, err = ses2.ReadByIndex(s2.Begin(), tbl2, "by_balance", want[2].Int)
		if err != nil || rec[0].Int != i {
			t.Fatalf("by_balance[%d] after restart: %v %v", want[2].Int, rec, err)
		}
	}
}

// testOwner is a minimal partition worker: a goroutine that runs
// everything shipped to its token, plus its own work, in inbox order.
type testOwner struct {
	tok *btree.Owner
	in  chan func()
}

func newTestOwner() *testOwner {
	// The inbox holds a whole storm (each round queues at most three
	// messages per owner), so two owners shipping to each other never
	// block on a full inbox.
	w := &testOwner{tok: btree.NewOwner(), in: make(chan func(), 1<<12)}
	go func() {
		for fn := range w.in {
			fn()
		}
	}()
	return w
}

func (w *testOwner) home(k func()) { w.in <- k }

func (w *testOwner) exec(fn func(*btree.Owner)) bool {
	done := make(chan struct{})
	w.in <- func() { fn(w.tok); close(done) }
	<-done
	return true
}

func (w *testOwner) execAsync(home btree.ContExec, fn func(*btree.Owner), done func(bool)) bool {
	w.in <- func() {
		fn(w.tok)
		if home == nil {
			done(true)
			return
		}
		home(func() { done(true) })
	}
	return true
}

// run executes fn on the owner's thread and waits for it.
func (w *testOwner) run(fn func()) {
	done := make(chan struct{})
	w.in <- func() { fn(); close(done) }
	<-done
}

// TestWriteScratchAsyncStorm: two owners each mutate their own rows while
// shipping MutateAsync increments to the other's rows. A shipped body
// runs on the foreign owner's thread while the sender goes on with its
// own writes, so buffers tied to the sending session (rather than to the
// executing thread's token) would be shared by two threads: the race
// detector flags that, and the callbacks' key checks and the final
// balances catch a corrupted image.
func TestWriteScratchAsyncStorm(t *testing.T) {
	s := open(t)
	tbl := testTable(t, s)
	const perOwner, rounds = 40, 320
	plain := s.Session(0)
	load := s.Begin()
	for i := int64(0); i < 2*perOwner; i += 2 {
		// Half the rows load before the claim, onto unstamped pages.
		if err := plain.Insert(load, tbl, acct(i, "x", 0)); err != nil {
			t.Fatal(err)
		}
		if err := plain.Insert(load, tbl, acct(1000+i, "x", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(load); err != nil {
		t.Fatal(err)
	}
	a, b := newTestOwner(), newTestOwner()
	defer close(a.in)
	defer close(b.in)
	tbl.Primary.Partitioned().Claim([]btree.ClaimRange{
		{Lo: math.MinInt64, Hi: 999, Owner: a.tok, Exec: a.exec, ExecAsync: a.execAsync},
		{Lo: 1000, Hi: math.MaxInt64, Owner: b.tok, Exec: b.exec, ExecAsync: b.execAsync},
	})
	owners := []*testOwner{a, b}
	bases := []int64{0, 1000}
	sessions := []*Session{s.OwnedSession(1, a.tok), s.OwnedSession(2, b.tok)}
	txns := []*tx.Txn{s.Begin(), s.Begin()}
	for o, w := range owners {
		// The other half loads through the owner, onto stamped pages.
		w.run(func() {
			for i := int64(1); i < 2*perOwner; i += 2 {
				if err := sessions[o].Insert(txns[o], tbl, acct(bases[o]+i, "x", 0)); err != nil {
					t.Error(err)
				}
			}
		})
	}

	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for o, w := range owners {
			own := bases[o] + int64(r%perOwner)
			foreign := bases[1-o] + int64((r*7)%perOwner)
			ses, txn := sessions[o], txns[o]
			wg.Add(1)
			w.in <- func() {
				ses.MutateAsync(txn, tbl, foreign, addTo(t, foreign, 1, "shipped"), w.home, func(err error) {
					if err != nil {
						t.Error(err)
					}
					wg.Done()
				})
				if err := ses.Mutate(txn, tbl, own, addTo(t, own, 1, "own-write")); err != nil {
					t.Error(err)
				}
			}
		}
	}
	wg.Wait()
	for _, txn := range txns {
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	// Each owner wrote each of its rows rounds/perOwner times itself and
	// received as many shipped increments from the other owner (7 is
	// coprime to perOwner, so the shipped keys cycle evenly too).
	want := int64(2 * rounds / perOwner)
	for o := range owners {
		for i := int64(0); i < perOwner; i++ {
			key := bases[o] + i
			rec, err := plain.Read(s.Begin(), tbl, key)
			if err != nil || rec[2].Int != want {
				t.Fatalf("row %d: %v %v, want balance %d", key, rec, err, want)
			}
		}
	}
}

// errIndexDown is the failure failingIndex injects.
var errIndexDown = errors.New("test: index unavailable")

// failingIndex is a secondary index whose PutAs fails for the keys in
// bad.
type failingIndex struct {
	btree.AccessMethod
	bad map[int64]bool
}

func (f *failingIndex) PutAs(caller *btree.Owner, key int64, val uint64) error {
	if f.bad[key] {
		return errIndexDown
	}
	return f.AccessMethod.PutAs(caller, key, val)
}

// TestFailedIndexUpdateRollsBack: when secondary index maintenance fails
// after the heap write was logged, the write still has its undo entry —
// rollback removes the inserted row and restores the updated one — and
// the index entry the failed update removed is back at once.
func TestFailedIndexUpdateRollsBack(t *testing.T) {
	s := open(t)
	tbl := scratchTable(t, s)
	ses := s.Session(0)
	loadAccounts(t, s, ses, tbl, 5)
	ix := &failingIndex{AccessMethod: tbl.Secondaries[0].Tree, bad: map[int64]bool{90: true, 930: true, 777: true}}
	tbl.Secondaries[0].Tree = ix
	rows := func() int {
		n := 0
		if err := tbl.Heap.Scan(func(storage.RID, []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	rid := func(key int64) uint64 {
		v, err := tbl.Primary.Tree.GetAs(nil, key)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	txn := s.Begin()
	if err := ses.Insert(txn, tbl, acct(9, "new", 90)); !errors.Is(err, errIndexDown) {
		t.Fatalf("insert with a failing index: %v", err)
	}
	if err := ses.Mutate(txn, tbl, 3, addTo(t, 3, 900, "moved")); !errors.Is(err, errIndexDown) {
		t.Fatalf("mutate with a failing index: %v", err)
	}
	if v, err := ix.GetAs(nil, 30); err != nil || v != rid(3) {
		t.Fatalf("by_balance[30] after the failed mutate: %d %v, want row 3's entry back", v, err)
	}
	if err := ses.Update(txn, tbl, 4, acct(4, "moved", 777)); !errors.Is(err, errIndexDown) {
		t.Fatalf("update with a failing index: %v", err)
	}
	if err := s.Rollback(txn); err != nil {
		t.Fatal(err)
	}
	if n := rows(); n != 5 {
		t.Fatalf("%d heap rows after rollback, want 5", n)
	}
	check := s.Begin()
	if _, err := ses.Read(check, tbl, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed insert readable after rollback: %v", err)
	}
	for i := int64(1); i <= 5; i++ {
		rec, err := ses.Read(check, tbl, i)
		if err != nil || !rec.Equal(acct(i, "orig", 10*i)) {
			t.Fatalf("row %d after rollback: %v %v", i, rec, err)
		}
		if v, err := ix.GetAs(nil, 10*i); err != nil || v != rid(i) {
			t.Fatalf("by_balance[%d] after rollback: %d %v", 10*i, v, err)
		}
	}
	for _, k := range []int64{90, 930, 777} {
		if _, err := ix.GetAs(nil, k); err == nil {
			t.Fatalf("by_balance[%d] present after rollback", k)
		}
	}
}
