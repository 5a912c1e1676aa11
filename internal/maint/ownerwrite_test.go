package maint

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/buffer"
	"dora/internal/catalog"
	"dora/internal/dora"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/wal"
	"dora/internal/xct"
)

// The owner-write storm: concurrent latch-free owner mutations vs the
// buffer pool's flush daemon (copy-on-write snapshot ships), eviction
// pressure (a pool smaller than the working set), fuzzy FlushAll
// checkpoints, and split/evacuate restamping — on two tables at once.
// Asserts no torn page images, exactly-once effects, and zero latched
// owner writes once the layout has converged.

// stormPad fattens records so the two tables overflow the test pools and
// eviction runs continuously.
var stormPad = strings.Repeat("p", 400)

// stormTable creates one storm schema table: routable primary on id,
// balance counter, fat pad.
func stormTable(t *testing.T, s *sm.SM, name string, n int64) *catalog.Table {
	t.Helper()
	tbl, err := s.CreateTable(sm.TableSpec{
		Name: name,
		Fields: []catalog.Field{
			{Name: "id", Type: tuple.TInt},
			{Name: "bal", Type: tuple.TInt},
			{Name: "pad", Type: tuple.TString},
		},
		KeyFields: []string{"id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func loadStorm(t *testing.T, s *sm.SM, tbl *catalog.Table, n int64) {
	t.Helper()
	ses := s.Session(0)
	setup := s.Begin()
	for id := int64(1); id <= n; id++ {
		if err := ses.Insert(setup, tbl, tuple.Record{tuple.I(id), tuple.I(0), tuple.S(stormPad)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(setup); err != nil {
		t.Fatal(err)
	}
}

// incFlow bumps table[id].bal by one (the exactly-once unit).
func incFlow(table string, id int64) *xct.Flow {
	return xct.NewFlow("inc").AddPhase(&xct.Action{
		Table: table, Key: id, KeyField: "id", Mode: xct.Write,
		Run: func(env *xct.Env) error {
			return env.Ses.Mutate(env.Txn, env.Ses.SM().Cat.Table(table), id, func(r tuple.Record) tuple.Record {
				r[1] = tuple.I(r[1].Int + 1)
				return r
			})
		},
	})
}

// verifyBalances checks every key's balance equals its commit count —
// through session reads (shipping to owners when claimed) so it works on
// a live engine too.
func verifyBalances(t *testing.T, s *sm.SM, tbl *catalog.Table, commits []atomic.Int64, n int64) {
	t.Helper()
	ses := s.Session(0)
	for id := int64(1); id <= n; id++ {
		rec, err := ses.Read(s.Begin(), tbl, id)
		if err != nil {
			t.Fatalf("%s[%d]: %v", tbl.Name, id, err)
		}
		if want := commits[id].Load(); rec[1].Int != want {
			t.Fatalf("%s[%d] bal = %d, want %d (exactly-once violated)", tbl.Name, id, rec[1].Int, want)
		}
	}
}

func TestOwnerWriteStormRace(t *testing.T) {
	const n = 160
	disk := buffer.NewMemDisk()
	store := wal.NewMemStore()
	// A pool much smaller than the two tables' footprint: eviction and
	// the cleaner run continuously under the storm.
	s, err := sm.Open(sm.Options{Frames: 24, Disk: disk, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tables := []string{"accounts", "ledger"}
	tbls := map[string]*catalog.Table{}
	for _, name := range tables {
		tbls[name] = stormTable(t, s, name, n)
		loadStorm(t, s, tbls[name], n)
	}
	e := dora.New(s, dora.Config{
		PartitionsPerTable: 2,
		Domains:            map[string][2]int64{"accounts": {1, n}, "ledger": {1, n}},
	})
	d := New(s, e, Config{Interval: 200 * time.Microsecond, RecordBudget: 32})
	d.Start()
	cl := buffer.NewCleaner(s.Pool, buffer.CleanerConfig{Interval: 500 * time.Microsecond, Batch: 8})
	cl.Start()

	// Fuzzy checkpoints (FlushAll over stamped dirty frames) while the
	// storm runs.
	var stop atomic.Bool
	var ckptErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := s.Checkpoint(); err != nil {
				ckptErr.Store(err)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Write traffic: per-key commit counting on both tables.
	commits := map[string][]atomic.Int64{}
	for _, name := range tables {
		commits[name] = make([]atomic.Int64, n+1)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				name := tables[rng.Intn(len(tables))]
				id := 1 + rng.Int63n(n)
				if err := e.Exec(int(seed), incFlow(name, id)); err == nil {
					commits[name][id].Add(1)
				}
			}
		}(int64(c + 1))
	}

	// Split/merge storm on both tables: moved ranges are unstamped on the
	// old owner's thread while snapshot ships may be in flight, evacuates
	// reassign stamps wholesale.
	for cycle := 0; cycle < 16; cycle++ {
		name := tables[cycle%len(tables)]
		rt := e.Router(name)
		r := rt.Ranges()[cycle%len(rt.Ranges())]
		if r.Hi-r.Lo < 2 {
			continue
		}
		nw, err := e.SplitPartition(name, r.Part, r.Lo+(r.Hi-r.Lo)/2)
		if err != nil {
			continue
		}
		if err := e.MergePartition(name, nw, r.Part); err != nil {
			t.Fatalf("merge cycle %d: %v", cycle, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err := ckptErr.Load(); err != nil {
		t.Fatalf("checkpoint under storm: %v", err)
	}

	// Converge, then measure: once every record sits on a page stamped to
	// its owner, owner writes must take ZERO frame latches — with the
	// cleaner still hardening snapshots underneath. The phase writes at
	// least 400 times and until the cleaner has shipped a snapshot
	// request to an owner, so cleaning provably ran through the
	// copy-on-write protocol while the writes went latch-free.
	_ = d.Close()
	d.Drain()
	for _, name := range tables {
		tbls[name].Heap.OwnedWrites.Reset()
		tbls[name].Heap.OwnedWritesLatched.Reset()
	}
	ships := s.Pool.SnapshotShips.Load()
	rng := rand.New(rand.NewSource(99))
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 400 || (s.Pool.SnapshotShips.Load() == ships && time.Now().Before(deadline)); i++ {
		name := tables[i%len(tables)]
		id := 1 + rng.Int63n(n)
		if err := e.Exec(0, incFlow(name, id)); err == nil {
			commits[name][id].Add(1)
		}
	}
	if s.Pool.SnapshotShips.Load() == ships {
		t.Fatal("no snapshot ships while converged: the cleaner did not run the copy-on-write protocol")
	}
	var owned, latched int64
	for _, name := range tables {
		owned += tbls[name].Heap.OwnedWrites.Load()
		latched += tbls[name].Heap.OwnedWritesLatched.Load()
	}
	if owned == 0 {
		t.Fatal("no owner writes observed in the converged phase")
	}
	if latched != 0 {
		t.Fatalf("converged owner writes still latched: %d of %d", latched, owned)
	}

	// Exactly-once, no torn images: balances match commit counts and
	// every key has exactly one live image.
	for _, name := range tables {
		verifyBalances(t, s, tbls[name], commits[name], n)
	}
	_ = cl.Close()
	_ = e.Close()
	for _, name := range tables {
		verifyLiveImages(t, tbls[name], n, 0)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidCleaningExactlyOnce kills the system between snapshot
// hardenings: some pages are on disk at snapshot LSNs (write-back
// happened), some mutations exist only in the log (the snapshot was
// taken but never hardened — equivalently, the crash hit mid-snapshot),
// and recovery must land every committed increment exactly once either
// way.
func TestCrashMidCleaningExactlyOnce(t *testing.T) {
	const n = 40
	disk := buffer.NewMemDisk()
	store := wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: 64, Disk: disk, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tbl := stormTable(t, s, "accounts", n)
	loadStorm(t, s, tbl, n)
	e := dora.New(s, dora.Config{
		PartitionsPerTable: 2,
		Domains:            map[string][2]int64{"accounts": {1, n}},
	})
	d := New(s, e, Config{})
	d.Drain() // stamps converged: the writes below are latch-free

	commits := make([]atomic.Int64, n+1)
	rng := rand.New(rand.NewSource(7))
	apply := func(rounds int) {
		for i := 0; i < rounds; i++ {
			id := 1 + rng.Int63n(n)
			if err := e.Exec(0, incFlow("accounts", id)); err == nil {
				commits[id].Add(1)
			}
		}
	}
	cl := buffer.NewCleaner(s.Pool, buffer.CleanerConfig{})

	// Phase A mutations, then a full snapshot sweep: every stamped dirty
	// page is hardened through the CoW ship (disk = consistent images at
	// known LSNs). The engine's own flush daemon may have hardened some
	// already; what matters is that ships happened and the sweep leaves
	// no stamped page dirty.
	apply(120)
	cl.Sweep()
	if s.Pool.SnapshotShips.Load() == 0 {
		t.Fatal("no stamped page was hardened through the snapshot ship")
	}
	// Phase B mutations land only in the log (and live frames): a final
	// snapshot copy that never hardens is indistinguishable from these.
	apply(120)

	// Crash: quiesce workers, no flush of pool or log tail.
	_ = d.Close()
	_ = e.Close()

	s2, err := sm.Open(sm.Options{Frames: 64, Disk: disk, LogStore: store.CrashCopy()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2 := stormTable(t, s2, "accounts", n)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	verifyLiveImages(t, tbl2, n, 0)
	ses := s2.Session(0)
	for id := int64(1); id <= n; id++ {
		rec, err := ses.Read(s2.Begin(), tbl2, id)
		if err != nil {
			t.Fatalf("id %d after recovery: %v", id, err)
		}
		if want := commits[id].Load(); rec[1].Int != want {
			t.Fatalf("id %d bal = %d after recovery, want %d (exactly-once violated)", id, rec[1].Int, want)
		}
	}
}

// TestCheckpointThenCrashRedoSkip: a checkpoint whose FlushAll hardened
// stamped pages through snapshot ships must still recover exactly-once
// from the checkpoint's redo point (the snapshot image's LSN bounds what
// redo may skip).
func TestCheckpointThenCrashRedoSkip(t *testing.T) {
	const n = 30
	disk := buffer.NewMemDisk()
	store := wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: 64, Disk: disk, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tbl := stormTable(t, s, "accounts", n)
	loadStorm(t, s, tbl, n)
	e := dora.New(s, dora.Config{
		PartitionsPerTable: 2,
		Domains:            map[string][2]int64{"accounts": {1, n}},
	})
	d := New(s, e, Config{})
	d.Drain()

	commits := make([]atomic.Int64, n+1)
	rng := rand.New(rand.NewSource(11))
	apply := func(rounds int) {
		for i := 0; i < rounds; i++ {
			id := 1 + rng.Int63n(n)
			if err := e.Exec(0, incFlow("accounts", id)); err == nil {
				commits[id].Add(1)
			}
		}
	}
	apply(80)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Pool.SnapshotShips.Load() == 0 {
		t.Fatal("checkpoint FlushAll bypassed the snapshot ship for stamped pages")
	}
	apply(80)
	_ = d.Close()
	_ = e.Close()

	s2, err := sm.Open(sm.Options{Frames: 64, Disk: disk, LogStore: store.CrashCopy()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2 := stormTable(t, s2, "accounts", n)
	st, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	ses := s2.Session(0)
	for id := int64(1); id <= n; id++ {
		rec, err := ses.Read(s2.Begin(), tbl2, id)
		if err != nil {
			t.Fatalf("id %d after recovery: %v", id, err)
		}
		if want := commits[id].Load(); rec[1].Int != want {
			t.Fatalf("id %d bal = %d after recovery, want %d", id, rec[1].Int, want)
		}
	}
}
