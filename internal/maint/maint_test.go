package maint

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/btree"
	"dora/internal/buffer"
	"dora/internal/catalog"
	"dora/internal/dora"
	"dora/internal/sm"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/wal"
	"dora/internal/workload"
	"dora/internal/workload/tatp"
	"dora/internal/xct"
)

// ownedRatio sums the owner-thread heap read counters over the tables
// and returns latched/total (1.0 = every aligned read still latches).
func ownedRatio(tables ...*catalog.Table) (float64, int64) {
	var total, latched int64
	for _, tbl := range tables {
		total += tbl.Heap.OwnedReads.Load()
		latched += tbl.Heap.OwnedReadsLatched.Load()
	}
	if total == 0 {
		return 0, 0
	}
	return float64(latched) / float64(total), total
}

func resetOwned(tables ...*catalog.Table) {
	for _, tbl := range tables {
		tbl.Heap.OwnedReads.Reset()
		tbl.Heap.OwnedReadsLatched.Reset()
	}
}

func tatpTables(db *tatp.DB) []*catalog.Table {
	return []*catalog.Table{db.Subscriber, db.AccessInfo, db.SpecialFac, db.CallForward}
}

// latchedReads runs the read-only TATP mix on e for 150 ms and returns
// the share of its owner-thread (aligned) heap reads that took a frame
// latch: the layout measure, 1.0 with nothing stamped.
func latchedReads(t *testing.T, e *dora.Dora, db *tatp.DB, seed int64) float64 {
	t.Helper()
	tables := tatpTables(db)
	resetOwned(tables...)
	dr := workload.Driver{
		Engine: e, Mix: db.ReadOnlyMix(tatp.MixOptions{}),
		Clients: 2, Duration: 150 * time.Millisecond, Seed: seed,
	}
	dr.Run()
	ratio, n := ownedRatio(tables...)
	if n == 0 {
		t.Fatal("no owner-thread reads observed")
	}
	return ratio
}

// TestConvergingReportsPendingWork: the balancer's maintenance gate —
// a rebalance event marks the table converging until the daemon's
// convergence pass drains its units.
func TestConvergingReportsPendingWork(t *testing.T) {
	s, err := sm.Open(sm.Options{Frames: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, err := tatp.Load(s, 300)
	if err != nil {
		t.Fatal(err)
	}
	e := dora.New(s, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
	defer e.Close()
	d := New(s, e, Config{})
	if d.Converging("subscriber") {
		t.Fatal("fresh daemon reports subscriber converging")
	}
	// A split fires the rebalance hook: the table is dirty until drained.
	rt := e.Router("subscriber")
	r := rt.Ranges()[0]
	if _, err := e.SplitPartition("subscriber", r.Part, r.Lo+(r.Hi-r.Lo)/2); err != nil {
		t.Fatal(err)
	}
	if !d.Converging("subscriber") {
		t.Fatal("split did not mark subscriber converging")
	}
	d.Drain("subscriber")
	if d.Converging("subscriber") {
		t.Fatal("subscriber still converging after Drain")
	}
}

// TestConvergenceAfterLoad: a freshly loaded database has every page
// unstamped (the loader is a shared session), so aligned reads and owner
// writes latch; one Drain converges the layout and both latched ratios
// drop to 0.
func TestConvergenceAfterLoad(t *testing.T) {
	s, err := sm.Open(sm.Options{Frames: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, err := tatp.Load(s, 500)
	if err != nil {
		t.Fatal(err)
	}
	e := dora.New(s, dora.Config{PartitionsPerTable: 4, Domains: db.Domains()})
	defer e.Close()
	d := New(s, e, Config{})

	tables := tatpTables(db)
	// writes runs 200 UpdateSubscriberData flows and returns the share of
	// their owner-thread heap mutations that took the frame latch.
	writes := func(seed int64) float64 {
		t.Helper()
		var owned, latched int64
		for _, tbl := range tables {
			tbl.Heap.OwnedWrites.Reset()
			tbl.Heap.OwnedWritesLatched.Reset()
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			_ = e.Exec(0, db.UpdateSubscriberData(1+rng.Int63n(500), 1+rng.Int63n(4), rng.Int63n(2), rng.Int63n(256)))
		}
		for _, tbl := range tables {
			owned += tbl.Heap.OwnedWrites.Load()
			latched += tbl.Heap.OwnedWritesLatched.Load()
		}
		if owned == 0 {
			t.Fatal("no owner-thread writes observed")
		}
		return float64(latched) / float64(owned)
	}

	if before := latchedReads(t, e, db, 7); before < 0.5 {
		t.Fatalf("fresh load latched-read ratio = %.3f, expected near 1", before)
	}
	if w := writes(3); w < 0.5 {
		t.Fatalf("fresh load latched owner-write ratio = %.3f, expected near 1", w)
	}

	d.Drain()
	st := d.Snapshot()
	if st.PagesStamped == 0 && st.RecordsMigrated == 0 {
		t.Fatalf("drain did no work: %+v", st)
	}

	if after := latchedReads(t, e, db, 7); after > 0.01 {
		t.Fatalf("converged latched-read ratio = %.4f, want ~0", after)
	}
	if w := writes(4); w > 0.02 {
		t.Fatalf("converged latched owner-write ratio = %.4f, want ~0", w)
	}
	// A second drain is a no-op: the layout is a fixed point.
	prev := d.Snapshot()
	d.Drain()
	if got := d.Snapshot(); got.PagesStamped != prev.PagesStamped || got.RecordsMigrated != prev.RecordsMigrated {
		t.Fatalf("drain not idempotent: %+v -> %+v", prev, got)
	}
}

// TestMaintenanceProbesRanges: heap migration gates each unit with one
// RangeBusy probe of its assigned range on the hierarchical lock table,
// never with a KeyBusy probe per record.
func TestMaintenanceProbesRanges(t *testing.T) {
	s, err := sm.Open(sm.Options{Frames: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, err := tatp.Load(s, 2000)
	if err != nil {
		t.Fatal(err)
	}
	e := dora.New(s, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
	defer e.Close()
	d := New(s, e, Config{})
	defer d.Close()
	before := e.LockSnapshot()
	d.Drain("subscriber") // the fresh load is unstamped: every page migrates
	after := e.LockSnapshot()
	if d.Snapshot().UnitsRun == 0 {
		t.Fatal("drain ran no maintenance unit")
	}
	if kp := after.KeyProbes - before.KeyProbes; kp != 0 {
		t.Fatalf("maintenance took %d key probes, want range probes only", kp)
	}
	if after.RangeProbes == before.RangeProbes {
		t.Fatal("maintenance took no range probes")
	}
}

// TestStormRaceAndFanout runs the maintenance daemon concurrently with
// foreground TATP traffic and a split/merge storm (the -race exercise in
// the CI matrix), then drains and checks (a) the layout re-converges,
// (b) root fan-out stays bounded by 2x the partition count after >= 100
// split/merge cycles with compaction on, and (c) no record was lost or
// duplicated. Around the storm it measures the layout as the fraction of
// owner-thread (aligned) reads that still latched a frame: near 1 on the
// fresh load (the loader stamps no page), ~0 once a drain converged it,
// higher after the storm (moved ranges lost their stamps; the daemon
// sits out the last cycles) than after the final drain, which brings it
// back to ~0.
func TestStormRaceAndFanout(t *testing.T) {
	const subs = 400
	s, err := sm.Open(sm.Options{Frames: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, err := tatp.Load(s, subs)
	if err != nil {
		t.Fatal(err)
	}
	e := dora.New(s, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
	defer e.Close()
	d := New(s, e, Config{Interval: 200 * time.Microsecond})

	if fresh := latchedReads(t, e, db, 9); fresh < 0.5 {
		t.Fatalf("fresh load latched/owned read = %.3f, expected near 1", fresh)
	}
	d.Drain()
	if conv := latchedReads(t, e, db, 10); conv > 0.02 {
		t.Fatalf("converged latched/owned read = %.4f, want ~0", conv)
	}
	d.Start()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			mix := db.NewMix(tatp.MixOptions{})
			for !stop.Load() {
				f := mix[rng.Intn(len(mix))]
				_ = e.Exec(int(seed), f.Build(rng))
			}
		}(int64(c + 1))
	}

	// >= 100 split/merge cycles against the subscriber table: 110 with
	// the daemon running, then 10 with it stopped, so the daemon cannot
	// have re-stamped what the last cycles moved before the layout is
	// measured.
	for cycle := 0; cycle < 120; cycle++ {
		if cycle == 110 {
			_ = d.Close()
		}
		rt := e.Router("subscriber")
		ranges := rt.Ranges()
		r := ranges[cycle%len(ranges)]
		if r.Hi-r.Lo < 2 {
			continue
		}
		mid := r.Lo + (r.Hi-r.Lo)/2
		nw, err := e.SplitPartition("subscriber", r.Part, mid)
		if err != nil {
			continue
		}
		if err := e.MergePartition("subscriber", nw, r.Part); err != nil {
			t.Fatalf("merge cycle %d: %v", cycle, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	decayed := latchedReads(t, e, db, 12)
	d.Drain()

	// (b) fan-out bound.
	parts := e.NumPartitions("subscriber")
	for _, ix := range db.Subscriber.Indexes() {
		pt := ix.Partitioned()
		if pt == nil {
			continue
		}
		if got := pt.NumSubtrees(); got > 2*parts {
			t.Fatalf("index %s fan-out %d > 2x partitions (%d) after storm+compaction", ix.Name, got, parts)
		}
	}
	// (a) converged ratio.
	ratio := latchedReads(t, e, db, 11)
	if ratio > 0.01 {
		t.Fatalf("post-storm converged ratio = %.4f, want ~0", ratio)
	}
	if decayed <= ratio {
		t.Fatalf("storm did not decay the layout: latched/owned read %.4f after the storm, %.4f after its drain", decayed, ratio)
	}
	// (c) integrity: every subscriber present exactly once, index and
	// heap agree.
	verifyLiveImages(t, db.Subscriber, subs, 0)
}

// verifyLiveImages asserts each key in [1, n] has exactly one live heap
// image and is readable through primary and secondary paths. keyField is
// the record position of the primary key.
func verifyLiveImages(t *testing.T, tbl *catalog.Table, n int64, keyField int) {
	t.Helper()
	if got := tbl.Primary.Tree.Len(); got != int(n) {
		t.Fatalf("%s primary index len = %d, want %d", tbl.Name, got, n)
	}
	counts := map[int64]int{}
	err := tbl.Heap.Scan(func(_ storage.RID, img []byte) bool {
		rec, derr := tuple.Decode(img)
		if derr == nil {
			counts[rec[keyField].Int]++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= n; id++ {
		if counts[id] != 1 {
			t.Fatalf("%s key %d has %d live heap images, want exactly 1", tbl.Name, id, counts[id])
		}
	}
}

// --- crash/recovery with maintenance in flight ---

// migTable creates the crash-test schema: a routable primary keyed by id
// plus a routable order-reversing secondary (so secondary repointing is
// exercised by migration).
func migTable(t *testing.T, s *sm.SM, n int64) *catalog.Table {
	t.Helper()
	tbl, err := s.CreateTable(sm.TableSpec{
		Name: "accounts",
		Fields: []catalog.Field{
			{Name: "id", Type: tuple.TInt},
			{Name: "alt", Type: tuple.TInt},
			{Name: "bal", Type: tuple.TInt},
		},
		KeyFields: []string{"id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
		Secondaries: []sm.IndexSpec{{
			Name:   "by_alt",
			Fields: []string{"alt"},
			Key:    func(r tuple.Record) int64 { return r[1].Int },
			RouteRange: func(lo, hi int64) (int64, int64) {
				return n + 1 - hi, n + 1 - lo
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func acct(n, id, bal int64) tuple.Record {
	return tuple.Record{tuple.I(id), tuple.I(n + 1 - id), tuple.I(bal)}
}

func loadAccounts(t *testing.T, s *sm.SM, tbl *catalog.Table, n int64) {
	t.Helper()
	ses := s.Session(0)
	setup := s.Begin()
	for id := int64(1); id <= n; id++ {
		if err := ses.Insert(setup, tbl, acct(n, id, id*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(setup); err != nil {
		t.Fatal(err)
	}
}

func verifyAccounts(t *testing.T, s *sm.SM, tbl *catalog.Table, n int64, bal func(id int64) int64) {
	t.Helper()
	verifyLiveImages(t, tbl, n, 0)
	ses := s.Session(0)
	for id := int64(1); id <= n; id++ {
		rec, err := ses.Read(s.Begin(), tbl, id)
		if err != nil {
			t.Fatalf("id %d after recovery: %v", id, err)
		}
		if bal != nil && rec[2].Int != bal(id) {
			t.Fatalf("id %d balance = %d, want %d", id, rec[2].Int, bal(id))
		}
		via, err := ses.ReadByIndex(s.Begin(), tbl, "by_alt", n+1-id)
		if err != nil || via[0].Int != id {
			t.Fatalf("id %d via secondary: %v %v", id, via, err)
		}
	}
}

// TestCrashMidMigrationLoser kills the system after a migration logged
// its delete+insert but before the commit record hardened: recovery must
// roll it back and leave exactly one image under each key.
func TestCrashMidMigrationLoser(t *testing.T) {
	const n = 20
	disk := buffer.NewMemDisk()
	store := wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: 64, Disk: disk, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tbl := migTable(t, s, n)
	loadAccounts(t, s, tbl, n)

	// Mid-flight migration: an owned session moves half the records; the
	// transaction never commits (the "kill" hits first), but its records
	// are durable — the worst case for recovery.
	mses := s.OwnedSession(0, btree.NewOwner())
	mtxn := s.Begin()
	for id := int64(1); id <= n/2; id++ {
		if _, err := mses.MigrateRecord(mtxn, tbl, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}

	s2, err := sm.Open(sm.Options{Frames: 64, Disk: disk, LogStore: store.CrashCopy()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2 := migTable(t, s2, n)
	st, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Losers != 1 {
		t.Fatalf("losers = %d, want 1 (the maintenance txn)", st.Losers)
	}
	verifyAccounts(t, s2, tbl2, n, func(id int64) int64 { return id * 10 })
}

// TestCrashMidMigrationWinner kills the system right after the migration
// transaction committed: recovery must land every record exactly once at
// its new location.
func TestCrashMidMigrationWinner(t *testing.T) {
	const n = 20
	disk := buffer.NewMemDisk()
	store := wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: 64, Disk: disk, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tbl := migTable(t, s, n)
	loadAccounts(t, s, tbl, n)

	mses := s.OwnedSession(0, btree.NewOwner())
	mtxn := s.Begin()
	moved := 0
	for id := int64(1); id <= n; id++ {
		ok, err := mses.MigrateRecord(mtxn, tbl, id)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("nothing migrated")
	}
	if err := s.Commit(mtxn); err != nil {
		t.Fatal(err)
	}

	s2, err := sm.Open(sm.Options{Frames: 64, Disk: disk, LogStore: store.CrashCopy()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2 := migTable(t, s2, n)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	verifyAccounts(t, s2, tbl2, n, func(id int64) int64 { return id * 10 })
}

// TestCrashDuringMaintenanceStorm runs the full engine + daemon + a
// split/merge storm (compactions and migrations in flight), quiesces the
// workers without flushing, crashes to the synced log prefix, and checks
// recovery rebuilds a consistent index shape: every record exactly once,
// secondaries consistent.
func TestCrashDuringMaintenanceStorm(t *testing.T) {
	const n = 200
	disk := buffer.NewMemDisk()
	store := wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: 256, Disk: disk, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tbl := migTable(t, s, n)
	loadAccounts(t, s, tbl, n)

	e := dora.New(s, dora.Config{PartitionsPerTable: 2, Domains: map[string][2]int64{"accounts": {1, n}}})
	d := New(s, e, Config{Interval: 100 * time.Microsecond, RecordBudget: 16})
	d.Start()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; !stop.Load(); i++ {
			id := 1 + rng.Int63n(n)
			_ = e.Exec(0, updateFlow("accounts", id, int64(i+1)))
		}
	}()
	for cycle := 0; cycle < 12; cycle++ {
		rt := e.Router("accounts")
		r := rt.Ranges()[cycle%len(rt.Ranges())]
		if r.Hi-r.Lo < 2 {
			continue
		}
		nw, err := e.SplitPartition("accounts", r.Part, r.Lo+(r.Hi-r.Lo)/2)
		if err != nil {
			continue
		}
		if err := e.MergePartition("accounts", nw, r.Part); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	_ = d.Close()
	_ = e.Close() // quiesce workers; NO log/pool flush — the crash is next

	s2, err := sm.Open(sm.Options{Frames: 256, Disk: disk, LogStore: store.CrashCopy()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2 := migTable(t, s2, n)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	verifyAccounts(t, s2, tbl2, n, nil)
}

// updateFlow builds a one-action flow updating id's balance.
func updateFlow(table string, id, bal int64) *xct.Flow {
	return xct.NewFlow(fmt.Sprintf("set-%d", id)).AddPhase(&xct.Action{
		Table: table, Key: id, KeyField: "id", Mode: xct.Write,
		Run: func(env *xct.Env) error {
			return env.Ses.Mutate(env.Txn, env.Ses.SM().Cat.Table(table), id, func(r tuple.Record) tuple.Record {
				r[2] = tuple.I(bal)
				return r
			})
		},
	})
}
