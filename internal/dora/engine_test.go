package dora

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/xct"
)

// rig builds an SM with one "accounts" table (id, owner_nbr, balance)
// loaded with n rows, plus a secondary index on owner_nbr = id + 10000.
func rig(t testing.TB, n int64, parts int) (*sm.SM, *catalog.Table, *Dora) {
	t.Helper()
	s, err := sm.Open(sm.Options{Frames: 256})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable(sm.TableSpec{
		Name: "accounts",
		Fields: []catalog.Field{
			{Name: "id", Type: tuple.TInt},
			{Name: "owner_nbr", Type: tuple.TInt},
			{Name: "balance", Type: tuple.TInt},
		},
		KeyFields: []string{"id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
		Secondaries: []sm.IndexSpec{{
			Name:   "accounts_by_nbr",
			Fields: []string{"owner_nbr"},
			Key:    func(r tuple.Record) int64 { return r[1].Int },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ses := s.Session(0)
	load := s.Begin()
	for i := int64(1); i <= n; i++ {
		if err := ses.Insert(load, tbl, tuple.Record{tuple.I(i), tuple.I(i + 10000), tuple.I(100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(load); err != nil {
		t.Fatal(err)
	}
	e := New(s, Config{
		PartitionsPerTable: parts,
		Domains:            map[string][2]int64{"accounts": {1, n}},
	})
	t.Cleanup(func() { _ = e.Close() })
	return s, tbl, e
}

// readFlow builds a single-action flow reading account id.
func readFlow(tbl *catalog.Table, id int64, out *int64) *xct.Flow {
	return xct.NewFlow("read").AddPhase(&xct.Action{
		Table: "accounts", KeyField: "id", Key: id, Mode: xct.Read,
		Run: func(env *xct.Env) error {
			rec, err := env.Ses.Read(env.Txn, tbl, id)
			if err != nil {
				return err
			}
			*out = rec[2].Int
			return nil
		},
	})
}

// transferFlow moves amount between two accounts in one phase.
func transferFlow(tbl *catalog.Table, from, to, amount int64) *xct.Flow {
	w := func(id, delta int64) *xct.Action {
		return &xct.Action{
			Table: "accounts", KeyField: "id", Key: id, Mode: xct.Write,
			Run: func(env *xct.Env) error {
				return env.Ses.Mutate(env.Txn, tbl, id, func(r tuple.Record) tuple.Record {
					r[2] = tuple.I(r[2].Int + delta)
					return r
				})
			},
		}
	}
	return xct.NewFlow("transfer").AddPhase(w(from, -amount), w(to, amount))
}

func TestExecSingleAction(t *testing.T) {
	_, tbl, e := rig(t, 100, 4)
	var bal int64
	if err := e.Exec(0, readFlow(tbl, 42, &bal)); err != nil {
		t.Fatal(err)
	}
	if bal != 100 {
		t.Fatalf("balance = %d", bal)
	}
	if e.Committed.Load() != 1 {
		t.Fatalf("committed = %d", e.Committed.Load())
	}
}

func TestExecMultiPartitionPhase(t *testing.T) {
	s, tbl, e := rig(t, 100, 4)
	if err := e.Exec(0, transferFlow(tbl, 1, 100, 30)); err != nil {
		t.Fatal(err)
	}
	ses := s.Session(9)
	r1, _ := ses.Read(s.Begin(), tbl, 1)
	r2, _ := ses.Read(s.Begin(), tbl, 100)
	if r1[2].Int != 70 || r2[2].Int != 130 {
		t.Fatalf("balances: %d, %d", r1[2].Int, r2[2].Int)
	}
}

func TestExecMultiPhase(t *testing.T) {
	s, tbl, e := rig(t, 10, 2)
	var seen int64
	flow := xct.NewFlow("two-phase").
		AddPhase(&xct.Action{
			Table: "accounts", KeyField: "id", Key: 1, Mode: xct.Read,
			Run: func(env *xct.Env) error {
				rec, err := env.Ses.Read(env.Txn, tbl, 1)
				if err != nil {
					return err
				}
				seen = rec[2].Int
				return nil
			},
		}).
		AddPhase(&xct.Action{
			Table: "accounts", KeyField: "id", Key: 2, Mode: xct.Write,
			Run: func(env *xct.Env) error {
				// Phase 2 sees phase 1's output (data dependency via RVP).
				return env.Ses.Update(env.Txn, tbl, 2,
					tuple.Record{tuple.I(2), tuple.I(10002), tuple.I(seen * 2)})
			},
		})
	if err := e.Exec(0, flow); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Session(9).Read(s.Begin(), tbl, 2)
	if rec[2].Int != 200 {
		t.Fatalf("phase-2 write = %d, want 200", rec[2].Int)
	}
}

func TestAbortRollsBackAllPartitions(t *testing.T) {
	s, tbl, e := rig(t, 100, 4)
	boom := errors.New("boom")
	flow := xct.NewFlow("failing").AddPhase(
		&xct.Action{
			Table: "accounts", KeyField: "id", Key: 5, Mode: xct.Write,
			Run: func(env *xct.Env) error {
				return env.Ses.Update(env.Txn, tbl, 5, tuple.Record{tuple.I(5), tuple.I(10005), tuple.I(9999)})
			},
		},
		&xct.Action{
			Table: "accounts", KeyField: "id", Key: 95, Mode: xct.Write,
			Run: func(env *xct.Env) error {
				return boom
			},
		},
	)
	err := e.Exec(0, flow)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	rec, _ := s.Session(9).Read(s.Begin(), tbl, 5)
	if rec[2].Int != 100 {
		t.Fatalf("write of aborted txn persisted: %d", rec[2].Int)
	}
	if e.Aborted.Load() != 1 {
		t.Fatalf("aborted = %d", e.Aborted.Load())
	}
	// Locks must be released: the same keys are writable again.
	if err := e.Exec(0, transferFlow(tbl, 5, 95, 10)); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransfersConserveTotal(t *testing.T) {
	s, tbl, e := rig(t, 50, 4)
	const clients = 8
	const perClient = 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				from := int64((c*perClient+i)%50) + 1
				to := int64((c*perClient+i*7)%50) + 1
				if from == to {
					continue
				}
				if err := e.Exec(c, transferFlow(tbl, from, to, 1)); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var total int64
	ses := s.Session(9)
	for i := int64(1); i <= 50; i++ {
		rec, err := ses.Read(s.Begin(), tbl, i)
		if err != nil {
			t.Fatal(err)
		}
		total += rec[2].Int
	}
	if total != 50*100 {
		t.Fatalf("total = %d, want %d (money not conserved)", total, 50*100)
	}
}

func TestUnalignedAccessViaResolver(t *testing.T) {
	s, tbl, e := rig(t, 100, 4)
	resolver := func(env *xct.Env, field string) (int64, error) {
		rec, err := env.Ses.ReadByIndex(env.Txn, tbl, "accounts_by_nbr", 10007)
		if err != nil {
			return 0, err
		}
		i := tbl.FieldIndex(field)
		if i < 0 {
			return 0, fmt.Errorf("no field %s", field)
		}
		return rec[i].Int, nil
	}
	var bal int64
	flow := xct.NewFlow("by-nbr").AddPhase(&xct.Action{
		Table: "accounts", KeyField: "owner_nbr", Key: 10007, Mode: xct.Read,
		Resolve: resolver,
		Run: func(env *xct.Env) error {
			rec, err := env.Ses.ReadByIndex(env.Txn, tbl, "accounts_by_nbr", 10007)
			if err != nil {
				return err
			}
			bal = rec[2].Int
			return nil
		},
	})
	if err := e.Exec(0, flow); err != nil {
		t.Fatal(err)
	}
	if bal != 100 {
		t.Fatalf("balance = %d", bal)
	}
	_, unaligned := e.AlignmentStats(false)
	if unaligned[tbl.ID]["owner_nbr"] != 1 {
		t.Fatalf("unaligned stats: %v", unaligned)
	}
	_ = s
}

func TestSplitPartitionUnderLoad(t *testing.T) {
	s, tbl, e := rig(t, 100, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var execErr error
	var mu sync.Mutex
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				from := int64((c*31+i)%100) + 1
				to := int64((c*17+i*3)%100) + 1
				i++
				if from == to {
					continue
				}
				if err := e.Exec(c, transferFlow(tbl, from, to, 1)); err != nil {
					mu.Lock()
					execErr = err
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	// Split and merge repeatedly while the load runs.
	time.Sleep(20 * time.Millisecond)
	stats := e.PartitionStats()
	first := stats[0].Worker
	nw, err := e.SplitPartition("accounts", first, 26)
	if err != nil {
		// The first worker may own the upper half; try the other.
		nw, err = e.SplitPartition("accounts", stats[1].Worker, 76)
	}
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	if e.NumPartitions("accounts") != 3 {
		t.Fatalf("partitions = %d, want 3", e.NumPartitions("accounts"))
	}
	// Merge the new partition back into an existing one.
	var into int
	for _, st := range e.PartitionStats() {
		if st.Worker != nw {
			into = st.Worker
			break
		}
	}
	if err := e.MergePartition("accounts", nw, into); err != nil {
		t.Fatalf("merge: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if execErr != nil {
		t.Fatalf("exec during rebalance: %v", execErr)
	}
	if e.NumPartitions("accounts") != 2 {
		t.Fatalf("partitions = %d, want 2", e.NumPartitions("accounts"))
	}
	// Money conserved through it all.
	var total int64
	ses := s.Session(9)
	for i := int64(1); i <= 100; i++ {
		rec, err := ses.Read(s.Begin(), tbl, i)
		if err != nil {
			t.Fatal(err)
		}
		total += rec[2].Int
	}
	if total != 100*100 {
		t.Fatalf("total = %d after rebalance", total)
	}
}

func TestRepartitionOnNewField(t *testing.T) {
	s, tbl, e := rig(t, 100, 4)
	// Before: partitioned by id; accesses by owner_nbr are unaligned.
	if pf := tbl.PartitionField(); pf != "id" {
		t.Fatalf("initial partition field %q", pf)
	}
	if err := e.Repartition("accounts", "owner_nbr", 10001, 10100); err != nil {
		t.Fatal(err)
	}
	if pf := tbl.PartitionField(); pf != "owner_nbr" {
		t.Fatalf("partition field after repartition: %q", pf)
	}
	// Aligned access by owner_nbr now routes directly.
	var bal int64
	flow := xct.NewFlow("by-nbr").AddPhase(&xct.Action{
		Table: "accounts", KeyField: "owner_nbr", Key: 10007, Mode: xct.Read,
		Run: func(env *xct.Env) error {
			rec, err := env.Ses.ReadByIndex(env.Txn, tbl, "accounts_by_nbr", 10007)
			if err != nil {
				return err
			}
			bal = rec[2].Int
			return nil
		},
	})
	if err := e.Exec(0, flow); err != nil {
		t.Fatal(err)
	}
	if bal != 100 {
		t.Fatalf("balance = %d", bal)
	}
	a, u := e.AlignmentStats(false)
	if len(u[tbl.ID]) != 0 || a[tbl.ID] != 1 {
		t.Fatalf("alignment after repartition: aligned=%v unaligned=%v", a, u)
	}
	// And transfers by id are now the unaligned ones — they need a
	// resolver, so keep using owner_nbr-keyed writes here.
	_ = s
}

func TestLockConflictSerializes(t *testing.T) {
	// Two writers to the same key: the local lock table must serialize
	// them; final balance reflects both.
	_, tbl, e := rig(t, 10, 2)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			flow := xct.NewFlow("inc").AddPhase(&xct.Action{
				Table: "accounts", KeyField: "id", Key: 7, Mode: xct.Write,
				Run: func(env *xct.Env) error {
					return env.Ses.Mutate(env.Txn, tbl, 7, func(r tuple.Record) tuple.Record {
						r[2] = tuple.I(r[2].Int + 1)
						return r
					})
				},
			})
			if err := e.Exec(i, flow); err != nil {
				t.Errorf("inc: %v", err)
			}
		}(i)
	}
	wg.Wait()
	var bal int64
	if err := e.Exec(0, readFlow(tbl, 7, &bal)); err != nil {
		t.Fatal(err)
	}
	if bal != 120 {
		t.Fatalf("balance = %d, want 120 (lost updates)", bal)
	}
}

func TestPartitionStatsShape(t *testing.T) {
	_, _, e := rig(t, 100, 3)
	stats := e.PartitionStats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d partitions", len(stats))
	}
	var width int64
	for _, st := range stats {
		if st.Table != "accounts" {
			t.Fatalf("table %q", st.Table)
		}
		width += st.Width
	}
	if width != 100 {
		t.Fatalf("total width %d, want 100", width)
	}
}
