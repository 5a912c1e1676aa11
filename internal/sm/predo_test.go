package sm

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"testing"

	"dora/internal/buffer"
	"dora/internal/catalog"
	"dora/internal/tuple"
	"dora/internal/wal"
)

// pageDigest hashes every heap page of every table — catalog order,
// ascending page id, full page bytes — for byte-for-byte end-state
// comparison between recoveries.
func pageDigest(t *testing.T, s *SM) string {
	t.Helper()
	h := sha256.New()
	for _, tbl := range s.Cat.Tables() {
		pids := tbl.Heap.Pages()
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
		for _, pid := range pids {
			f, err := s.Pool.Fetch(pid)
			if err != nil {
				t.Fatal(err)
			}
			f.Latch.RLock()
			h.Write(f.Page.Data[:])
			f.Latch.RUnlock()
			s.Pool.Unpin(f, false)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestParallelRecoveryEquivalence crashes a mixed workload (winners,
// losers, inserts/updates/deletes across many pages) and recovers it at
// several applier counts: every recovery must leave byte-identical heap
// pages AND append a byte-identical undo tail (CLRs + end records) to its
// log — serial/parallel end-state equivalence.
func TestParallelRecoveryEquivalence(t *testing.T) {
	store := wal.NewMemStore()
	s, err := Open(Options{Frames: 256, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tbl := testTable(t, s)
	ses := s.Session(0)
	// Winners: enough rows to spread across pages, with updates and
	// deletes so redo exercises every physical kind.
	for g := 0; g < 10; g++ {
		txn := s.Begin()
		for i := int64(0); i < 30; i++ {
			id := int64(g)*30 + i + 1
			if err := ses.Insert(txn, tbl, acct(id, "w", id)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	mod := s.Begin()
	for id := int64(1); id <= 100; id += 3 {
		if err := ses.Update(mod, tbl, id, acct(id, "u", id*10)); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(2); id <= 100; id += 7 {
		if err := ses.Delete(mod, tbl, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(mod); err != nil {
		t.Fatal(err)
	}
	// Two in-flight losers so undo has work — their CLR order must come
	// out identical across recoveries.
	l1, l2 := s.Begin(), s.Begin()
	_ = ses.Insert(l1, tbl, acct(900, "loser", 0))
	_ = ses.Update(l1, tbl, 10, acct(10, "loser", -1))
	_ = ses.Insert(l2, tbl, acct(901, "loser", 0))
	_ = ses.Delete(l2, tbl, 13)
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}

	var wantPages, wantLog string
	for _, workers := range []int{1, 2, 4, 8} {
		crashed := store.CrashCopy()
		s2, err := Open(Options{Frames: 256, Disk: buffer.NewMemDisk(), LogStore: crashed, RedoWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tbl2 := testTable(t, s2)
		st, err := s2.Recover()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Losers != 2 {
			t.Fatalf("workers=%d: losers = %d, want 2", workers, st.Losers)
		}
		pg := pageDigest(t, s2)
		raw, err := crashed.Contents()
		if err != nil {
			t.Fatal(err)
		}
		lg := fmt.Sprintf("%x", sha256.Sum256(raw))
		if workers == 1 {
			wantPages, wantLog = pg, lg
		} else {
			if pg != wantPages {
				t.Fatalf("workers=%d: heap pages diverge from serial recovery", workers)
			}
			if lg != wantLog {
				t.Fatalf("workers=%d: undo log tail diverges from serial recovery", workers)
			}
		}
		// Spot-check semantics on top of the byte equality.
		ses2 := s2.Session(0)
		if rec, err := ses2.Read(s2.Begin(), tbl2, 4); err != nil || rec[2].Int != 40 {
			t.Fatalf("workers=%d: updated key 4: %v %v", workers, rec, err)
		}
		if _, err := ses2.Read(s2.Begin(), tbl2, 900); !errors.Is(err, ErrNotFound) {
			t.Fatalf("workers=%d: loser insert visible: %v", workers, err)
		}
		if rec, err := ses2.Read(s2.Begin(), tbl2, 13); err != nil || rec[1].Str != "u" {
			t.Fatalf("workers=%d: loser delete not undone: %v %v", workers, rec, err)
		}
	}
}

// failStopFeed is a log whose second transaction updates a slot that
// was never inserted: a physically impossible record.
func failStopFeed(tbl *catalog.Table) []*wal.Record {
	img := tuple.Encode(acct(1, "a", 1))
	return []*wal.Record{
		{LSN: 0, TxnID: 1, Kind: wal.KInsert, Table: tbl.ID, Page: 0, Slot: 0, Key: 1, Redo: img},
		{LSN: 100, TxnID: 1, Kind: wal.KCommit},
		{LSN: 200, TxnID: 2, Kind: wal.KUpdate, Table: tbl.ID, Page: 0, Slot: 99, Key: 1, Redo: img},
		{LSN: 300, TxnID: 2, Kind: wal.KCommit},
	}
}

// TestParallelReplayFailStop poisons the redo pool with a physically
// impossible record, inline and with appliers: the first error must
// latch, surface by the extent barrier at the latest, and stay sticky
// for every later barrier — fail-stop for the whole pool.
func TestParallelReplayFailStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, err := Open(Options{Frames: 64, RedoWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rp := NewReplayer(s)
			defer rp.Close()
			var applyErr error
			for _, r := range failStopFeed(testTable(t, s)) {
				if applyErr = rp.Apply(r); applyErr != nil {
					break
				}
			}
			if applyErr == nil {
				applyErr = rp.Sync()
			}
			if applyErr == nil {
				t.Fatal("poisoned stream applied without error")
			}
			if err := rp.Sync(); err == nil {
				t.Fatal("pool error not sticky across barriers")
			}
		})
	}
}

// TestRecoverFailStop: restart over a log holding a physically
// impossible update returns an error, inline and with appliers.
func TestRecoverFailStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			store := wal.NewMemStore()
			s, err := Open(Options{Frames: 64, LogStore: store})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range failStopFeed(testTable(t, s)) {
				s.Log.Append(r)
			}
			if err := s.Log.FlushAll(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(Options{Frames: 64, LogStore: store.CrashCopy(), RedoWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			testTable(t, s2)
			if _, err := s2.Recover(); err == nil {
				t.Fatal("poisoned log recovered without error")
			}
		})
	}
}
