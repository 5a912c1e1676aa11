package sm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dora/internal/buffer"
	"dora/internal/catalog"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/wal"
)

// Redo-pipeline microbenchmarks over one fixed TPC-B-shaped log: 4
// branches, 40 tellers and 2,000 accounts loaded, then 2,000
// transactions that each bump an account, its teller and its branch and
// insert a history row, plus two transactions left in flight for
// restart to undo. Run with -benchmem (both report allocs/op).

const (
	tpcbBranches = 4
	tpcbTellers  = 40
	tpcbAccounts = 2000
	tpcbTxns     = 2000
)

// tpcbTables registers the four TPC-B tables, in order.
func tpcbTables(tb testing.TB, s *SM) []*catalog.Table {
	tb.Helper()
	var tbls []*catalog.Table
	for _, name := range []string{"branch", "teller", "account", "history"} {
		tbl, err := s.CreateTable(TableSpec{
			Name: name,
			Fields: []catalog.Field{
				{Name: "id", Type: tuple.TInt},
				{Name: "balance", Type: tuple.TInt},
				{Name: "filler", Type: tuple.TString},
			},
			KeyFields: []string{"id"},
			Key:       func(r tuple.Record) int64 { return r[0].Int },
		})
		if err != nil {
			tb.Fatal(err)
		}
		tbls = append(tbls, tbl)
	}
	return tbls
}

var tpcbLog struct {
	once  sync.Once
	store *wal.MemStore
	recs  []*wal.Record
}

// tpcbStore returns the hardened log store of the fixed workload and its
// records, built once.
func tpcbStore(tb testing.TB) (*wal.MemStore, []*wal.Record) {
	tpcbLog.once.Do(func() {
		store := wal.NewMemStore()
		s, err := Open(Options{Frames: 512, LogStore: store})
		if err != nil {
			tb.Fatal(err)
		}
		tbls := tpcbTables(tb, s)
		ses := s.Session(0)
		load := s.Begin()
		for i, n := range []int64{tpcbBranches, tpcbTellers, tpcbAccounts} {
			for id := int64(0); id < n; id++ {
				if err := ses.Insert(load, tbls[i], tuple.Record{tuple.I(id), tuple.I(0), tuple.S("tpcb-filler")}); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if err := s.Commit(load); err != nil {
			tb.Fatal(err)
		}
		bump := func(r tuple.Record) tuple.Record {
			r[1] = tuple.I(r[1].Int + 1)
			return r
		}
		rng := rand.New(rand.NewSource(1))
		txn := func(h int64) *tx.Txn {
			t := s.Begin()
			a := rng.Int63n(tpcbAccounts)
			for i, key := range []int64{a % tpcbBranches, a % tpcbTellers, a} {
				if err := ses.Mutate(t, tbls[i], key, bump); err != nil {
					tb.Fatal(err)
				}
			}
			if err := ses.Insert(t, tbls[3], tuple.Record{tuple.I(h), tuple.I(a), tuple.S("hist")}); err != nil {
				tb.Fatal(err)
			}
			return t
		}
		for h := int64(0); h < tpcbTxns; h++ {
			if err := s.Commit(txn(h)); err != nil {
				tb.Fatal(err)
			}
		}
		txn(tpcbTxns)
		txn(tpcbTxns + 1)
		if err := s.Log.FlushAll(); err != nil {
			tb.Fatal(err)
		}
		if err := s.Log.Scan(func(r *wal.Record) error {
			tpcbLog.recs = append(tpcbLog.recs, r)
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
		tpcbLog.store = store
	})
	return tpcbLog.store, tpcbLog.recs
}

// BenchmarkRecover measures one restart over the fixed log: scan,
// analysis, redo, loser undo and index rebuild.
func BenchmarkRecover(b *testing.B) {
	store, _ := tpcbStore(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := Open(Options{Frames: 512, Disk: buffer.NewMemDisk(), LogStore: store.CrashCopy(), RedoWorkers: workers})
				if err != nil {
					b.Fatal(err)
				}
				tpcbTables(b, s)
				b.StartTimer()
				st, err := s.Recover()
				if err != nil {
					b.Fatal(err)
				}
				if st.Losers != 2 {
					b.Fatalf("losers = %d, want 2", st.Losers)
				}
				b.StopTimer()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkReplayerApply measures a replica replaying the fixed log as a
// stream: every record through Apply, then one Sync.
func BenchmarkReplayerApply(b *testing.B) {
	_, recs := tpcbStore(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// A replica's log manager only hardens the delivered stream;
				// nullLog stands in for it.
				s, err := Open(Options{Frames: 512, Disk: buffer.NewMemDisk(), Log: &nullLog{}, RedoWorkers: workers})
				if err != nil {
					b.Fatal(err)
				}
				tpcbTables(b, s)
				rp := NewReplayer(s)
				b.StartTimer()
				for _, r := range recs {
					if err := rp.Apply(r); err != nil {
						b.Fatal(err)
					}
				}
				if err := rp.Sync(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rp.Close()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
