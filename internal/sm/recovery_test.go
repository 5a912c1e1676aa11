package sm

import (
	"errors"
	"math/rand"
	"testing"

	"dora/internal/buffer"
	"dora/internal/wal"
)

// crashRig runs a workload against an SM, then "crashes": it reopens a
// new SM over the same durable disk and the synced prefix of the log.
type crashRig struct {
	disk  *buffer.MemDisk
	store *wal.MemStore
}

func newRig() *crashRig {
	return &crashRig{disk: buffer.NewMemDisk(), store: wal.NewMemStore()}
}

func (r *crashRig) open(t *testing.T) *SM {
	t.Helper()
	s, err := Open(Options{Frames: 64, Disk: r.disk, LogStore: r.store})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crash reopens over the synced log prefix (unsynced appends are lost).
func (r *crashRig) crash(t *testing.T) *SM {
	t.Helper()
	r.store = r.store.CrashCopy()
	return r.open(t)
}

// TestRecoverAcrossLogManagers runs the workload under the single-mutex
// reference log (wal.New), crashes, and recovers under the
// consolidation-array log (and vice versa): the two managers share one
// on-disk format, so recovery must be oblivious to which one produced
// the stream.
func TestRecoverAcrossLogManagers(t *testing.T) {
	// legacyOr hands opt's store to the single-mutex manager when legacy
	// is set; Open builds the consolidation-array one otherwise.
	legacyOr := func(t *testing.T, opt Options, legacy bool) Options {
		t.Helper()
		if legacy {
			log, err := wal.New(opt.LogStore, nil)
			if err != nil {
				t.Fatal(err)
			}
			opt.Log = log
		}
		return opt
	}
	for _, dir := range []struct {
		name              string
		writer, recoverer bool // true: the single-mutex wal.Log
	}{
		{"legacy-to-clog", true, false},
		{"clog-to-legacy", false, true},
	} {
		t.Run(dir.name, func(t *testing.T) {
			disk := buffer.NewMemDisk()
			store := wal.NewMemStore()
			s, err := Open(legacyOr(t, Options{Frames: 64, Disk: disk, LogStore: store}, dir.writer))
			if err != nil {
				t.Fatal(err)
			}
			tbl := testTable(t, s)
			ses := s.Session(0)
			winner := s.Begin()
			for i := int64(1); i <= 10; i++ {
				if err := ses.Insert(winner, tbl, acct(i, "w", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Commit(winner); err != nil {
				t.Fatal(err)
			}
			loser := s.Begin()
			_ = ses.Insert(loser, tbl, acct(99, "loser", 0))
			_ = ses.Update(loser, tbl, 1, acct(1, "w", 777))
			if err := s.Log.FlushAll(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(legacyOr(t, Options{Frames: 64, Disk: disk, LogStore: store.CrashCopy()}, dir.recoverer))
			if err != nil {
				t.Fatal(err)
			}
			tbl2 := testTable(t, s2)
			st, err := s2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if st.Losers != 1 {
				t.Fatalf("losers = %d, want 1", st.Losers)
			}
			ses2 := s2.Session(0)
			for i := int64(1); i <= 10; i++ {
				rec, err := ses2.Read(s2.Begin(), tbl2, i)
				if err != nil || rec[2].Int != i {
					t.Fatalf("winner key %d: %v %v", i, rec, err)
				}
			}
			if _, err := ses2.Read(s2.Begin(), tbl2, 99); !errors.Is(err, ErrNotFound) {
				t.Fatalf("loser insert visible after recovery: %v", err)
			}
		})
	}
}

func TestRecoverCommittedSurvive(t *testing.T) {
	rig := newRig()
	s := rig.open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	txn := s.Begin()
	for i := int64(1); i <= 50; i++ {
		if err := ses.Insert(txn, tbl, acct(i, "durable", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	// Crash without flushing any data page.
	s2 := rig.crash(t)
	tbl2 := testTable(t, s2)
	st, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Redone == 0 || st.Rebuilt != 50 {
		t.Fatalf("stats: %+v", st)
	}
	ses2 := s2.Session(0)
	for i := int64(1); i <= 50; i++ {
		rec, err := ses2.Read(s2.Begin(), tbl2, i)
		if err != nil || rec[2].Int != i {
			t.Fatalf("key %d after recovery: %v %v", i, rec, err)
		}
	}
}

func TestRecoverUncommittedRolledBack(t *testing.T) {
	rig := newRig()
	s := rig.open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)

	committed := s.Begin()
	_ = ses.Insert(committed, tbl, acct(1, "committed", 100))
	if err := s.Commit(committed); err != nil {
		t.Fatal(err)
	}

	// In-flight at crash: insert + update + delete, all must vanish.
	loser := s.Begin()
	_ = ses.Insert(loser, tbl, acct(2, "loser-insert", 0))
	_ = ses.Update(loser, tbl, 1, acct(1, "committed", 777))
	// Force the log so the loser's records are durable (worst case).
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}

	s2 := rig.crash(t)
	tbl2 := testTable(t, s2)
	st, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Losers != 1 {
		t.Fatalf("losers = %d, want 1", st.Losers)
	}
	ses2 := s2.Session(0)
	rec, err := ses2.Read(s2.Begin(), tbl2, 1)
	if err != nil || rec[2].Int != 100 {
		t.Fatalf("loser update survived: %v %v", rec, err)
	}
	if _, err := ses2.Read(s2.Begin(), tbl2, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("loser insert survived: %v", err)
	}
}

func TestRecoverAfterFlushedDirtyPages(t *testing.T) {
	// Dirty pages of an uncommitted txn reach disk (steal policy); undo
	// must reverse them from the durable log.
	rig := newRig()
	s := rig.open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	base := s.Begin()
	_ = ses.Insert(base, tbl, acct(1, "base", 10))
	if err := s.Commit(base); err != nil {
		t.Fatal(err)
	}
	loser := s.Begin()
	_ = ses.Update(loser, tbl, 1, acct(1, "base", 666))
	// Flush everything: log then pages (write-ahead respected by pool).
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	s2 := rig.crash(t)
	tbl2 := testTable(t, s2)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	rec, err := s2.Session(0).Read(s2.Begin(), tbl2, 1)
	if err != nil || rec[2].Int != 10 {
		t.Fatalf("stolen dirty page not undone: %v %v", rec, err)
	}
}

func TestRecoverRolledBackTxnStaysRolledBack(t *testing.T) {
	rig := newRig()
	s := rig.open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	base := s.Begin()
	_ = ses.Insert(base, tbl, acct(1, "v", 1))
	_ = s.Commit(base)

	ab := s.Begin()
	_ = ses.Update(ab, tbl, 1, acct(1, "v", 999))
	if err := s.Rollback(ab); err != nil {
		t.Fatal(err)
	}
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}

	s2 := rig.crash(t)
	tbl2 := testTable(t, s2)
	st, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Losers != 0 {
		t.Fatalf("fully rolled-back txn counted as loser: %+v", st)
	}
	rec, err := s2.Session(0).Read(s2.Begin(), tbl2, 1)
	if err != nil || rec[2].Int != 1 {
		t.Fatalf("state after recovering aborted txn: %v %v", rec, err)
	}
}

func TestRecoverCrashDuringRollback(t *testing.T) {
	// A loser with CLRs for part of its undo: recovery must resume from
	// UndoNext, not re-undo compensated work.
	rig := newRig()
	s := rig.open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	base := s.Begin()
	_ = ses.Insert(base, tbl, acct(1, "a", 1))
	_ = ses.Insert(base, tbl, acct(2, "b", 2))
	_ = s.Commit(base)

	loser := s.Begin()
	_ = ses.Update(loser, tbl, 1, acct(1, "a", 100))
	_ = ses.Update(loser, tbl, 2, acct(2, "b", 200))
	// Manually undo only the *second* update with a CLR (simulating a
	// crash half-way through rollback).
	undos := loser.TakeUndos() // reverse order: [update2, update1]
	if err := s.ApplyUndo(loser, undos[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}

	s2 := rig.crash(t)
	tbl2 := testTable(t, s2)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ses2 := s2.Session(0)
	r1, _ := ses2.Read(s2.Begin(), tbl2, 1)
	r2, _ := ses2.Read(s2.Begin(), tbl2, 2)
	if r1 == nil || r1[2].Int != 1 {
		t.Fatalf("key 1 = %v, want balance 1", r1)
	}
	if r2 == nil || r2[2].Int != 2 {
		t.Fatalf("key 2 = %v, want balance 2", r2)
	}
}

func TestRecoverIdempotentDoubleRecovery(t *testing.T) {
	rig := newRig()
	s := rig.open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	txn := s.Begin()
	_ = ses.Insert(txn, tbl, acct(1, "x", 9))
	_ = s.Commit(txn)

	s2 := rig.crash(t)
	_ = testTable(t, s2)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	// Crash again immediately and recover a second time.
	s3 := rig.crash(t)
	tbl3 := testTable(t, s3)
	if _, err := s3.Recover(); err != nil {
		t.Fatal(err)
	}
	rec, err := s3.Session(0).Read(s3.Begin(), tbl3, 1)
	if err != nil || rec[2].Int != 9 {
		t.Fatalf("after double recovery: %v %v", rec, err)
	}
}

// TestRecoverRandomized runs random committed/aborted/in-flight work,
// crashes at a random point, recovers, and compares against a model of
// only the committed effects.
func TestRecoverRandomized(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rig := newRig()
			s := rig.open(t)
			tbl := testTable(t, s)
			ses := s.Session(0)
			model := map[int64]int64{} // committed key -> balance

			for round := 0; round < 40; round++ {
				txn := s.Begin()
				local := map[int64]*int64{} // staged changes, nil = delete
				for op := 0; op < 1+rng.Intn(4); op++ {
					k := int64(rng.Intn(20))
					_, inModel := model[k]
					if staged, ok := local[k]; ok {
						inModel = staged != nil
					}
					if !inModel {
						bal := rng.Int63n(1000)
						if err := ses.Insert(txn, tbl, acct(k, "r", bal)); err != nil {
							t.Fatal(err)
						}
						local[k] = &bal
					} else if rng.Intn(3) == 0 {
						if err := ses.Delete(txn, tbl, k); err != nil {
							t.Fatal(err)
						}
						local[k] = nil
					} else {
						bal := rng.Int63n(1000)
						if err := ses.Update(txn, tbl, k, acct(k, "r", bal)); err != nil {
							t.Fatal(err)
						}
						local[k] = &bal
					}
				}
				switch rng.Intn(3) {
				case 0: // commit
					if err := s.Commit(txn); err != nil {
						t.Fatal(err)
					}
					for k, v := range local {
						if v == nil {
							delete(model, k)
						} else {
							model[k] = *v
						}
					}
				case 1: // rollback
					if err := s.Rollback(txn); err != nil {
						t.Fatal(err)
					}
				case 2: // leave in flight (loser at crash)
					if rng.Intn(2) == 0 {
						_ = s.Log.FlushAll()
					}
					// Occasionally flush dirty pages too (steal).
					if rng.Intn(3) == 0 {
						_ = s.Log.FlushAll()
						_ = s.Pool.FlushAll()
					}
					// Abandon txn: do not commit or roll back, and start
					// fresh state for the next round.
					goto crash
				}
			}
		crash:
			s2 := rig.crash(t)
			tbl2 := testTable(t, s2)
			if _, err := s2.Recover(); err != nil {
				t.Fatal(err)
			}
			ses2 := s2.Session(0)
			for k, want := range model {
				rec, err := ses2.Read(s2.Begin(), tbl2, k)
				if err != nil || rec[2].Int != want {
					t.Fatalf("seed %d key %d: got %v %v, want %d", seed, k, rec, err, want)
				}
			}
			for k := int64(0); k < 20; k++ {
				if _, committed := model[k]; committed {
					continue
				}
				if _, err := ses2.Read(s2.Begin(), tbl2, k); err == nil {
					t.Fatalf("seed %d: uncommitted key %d visible after recovery", seed, k)
				}
			}
		})
	}
}

func TestRecoverLoserWithInsertAndDelete(t *testing.T) {
	rig := newRig()
	s := rig.open(t)
	tbl := testTable(t, s)
	ses := s.Session(0)
	base := s.Begin()
	_ = ses.Insert(base, tbl, acct(5, "keep", 55))
	_ = s.Commit(base)

	loser := s.Begin()
	_ = ses.Insert(loser, tbl, acct(6, "phantom", 66))
	_ = ses.Delete(loser, tbl, 5)
	_ = s.Log.FlushAll()

	s2 := rig.crash(t)
	tbl2 := testTable(t, s2)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ses2 := s2.Session(0)
	rec, err := ses2.Read(s2.Begin(), tbl2, 5)
	if err != nil || rec[2].Int != 55 {
		t.Fatalf("deleted-by-loser record not restored: %v %v", rec, err)
	}
	if _, err := ses2.Read(s2.Begin(), tbl2, 6); !errors.Is(err, ErrNotFound) {
		t.Fatalf("loser insert visible: %v", err)
	}
}
