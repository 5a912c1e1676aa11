package tatp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/engine/conventional"
	"dora/internal/repl"
	"dora/internal/sm"
	"dora/internal/wal"
	"dora/internal/workload"
)

func loadDB(t *testing.T, n int64) *DB {
	t.Helper()
	s, err := sm.Open(sm.Options{Frames: 2048})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Load(s, n)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadShapes(t *testing.T) {
	db := loadDB(t, 200)
	if got := db.Subscriber.Primary.Tree.Len(); got != 200 {
		t.Fatalf("subscribers = %d", got)
	}
	ai := db.AccessInfo.Primary.Tree.Len()
	if ai < 200 || ai > 800 {
		t.Fatalf("access_info rows = %d, want within [200,800]", ai)
	}
	sf := db.SpecialFac.Primary.Tree.Len()
	if sf < 200 || sf > 800 {
		t.Fatalf("special_facility rows = %d", sf)
	}
	// sub_nbr bijection round-trips.
	for _, sid := range []int64{1, 77, 200} {
		if db.SIDFromNbr(db.SubNbr(sid)) != sid {
			t.Fatalf("sub_nbr bijection broken for %d", sid)
		}
	}
}

func TestKeyPacking(t *testing.T) {
	if AIKey(1, 1) == AIKey(1, 2) || AIKey(1, 4) >= AIKey(2, 1) {
		t.Fatal("AIKey ordering broken")
	}
	if CFKey(5, 2, 8) == CFKey(5, 2, 16) {
		t.Fatal("CFKey collision")
	}
	if CFKey(5, 4, 16) >= CFKey(6, 1, 0) {
		t.Fatal("CFKey crosses subscriber boundary")
	}
}

// runBoth executes the standard mix on both engines and sanity-checks
// outcome counts.
func runBoth(t *testing.T, db *DB, mix workload.Mix) map[string]workload.Result {
	t.Helper()
	out := map[string]workload.Result{}

	conv := conventional.New(db.SM)
	dr := workload.Driver{
		Engine: conv, Mix: mix, Clients: 8,
		Duration: 300 * time.Millisecond, Seed: 1,
	}
	out[conv.Name()] = dr.Run()

	de := dora.New(db.SM, dora.Config{PartitionsPerTable: 4, Domains: db.Domains()})
	defer de.Close()
	dr.Engine = de
	out[de.Name()] = dr.Run()
	return out
}

func TestMixOnBothEngines(t *testing.T) {
	db := loadDB(t, 500)
	mix := db.NewMix(MixOptions{})
	results := runBoth(t, db, mix)
	for name, res := range results {
		if res.Committed < 100 {
			t.Fatalf("%s committed only %d transactions", name, res.Committed)
		}
		// The three read transactions dominate the mix.
		reads := res.PerTxn["GetSubscriberData"] + res.PerTxn["GetAccessData"]
		if float64(reads) < 0.4*float64(res.Committed) {
			t.Fatalf("%s: mix skewed: %v", name, res.PerTxn)
		}
	}
}

func TestUpdateLocationRoundTrip(t *testing.T) {
	db := loadDB(t, 100)
	de := dora.New(db.SM, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
	defer de.Close()
	var e engine.Engine = de
	nbr := db.SubNbr(42)
	if err := e.Exec(0, db.UpdateLocation(nbr, 9999)); err != nil {
		t.Fatal(err)
	}
	rec, err := db.SM.Session(0).Read(db.SM.Begin(), db.Subscriber, 42)
	if err != nil || rec[subVLRLoc].Int != 9999 {
		t.Fatalf("vlr_location = %v, %v", rec, err)
	}
	// It counted as a non-aligned dispatch.
	_, unaligned := de.AlignmentStats(false)
	if unaligned[db.Subscriber.ID]["sub_nbr"] == 0 {
		t.Fatal("UpdateLocation not counted as unaligned")
	}
}

// TestUpdateLocationAsyncResolver: DORA resolves every sub_nbr-keyed
// UpdateLocation through the action's async resolver, which reads its
// sub_nbr from the flow's parameter block through the resolver's Env.
func TestUpdateLocationAsyncResolver(t *testing.T) {
	const n = 60
	db := loadDB(t, n)
	de := dora.New(db.SM, dora.Config{PartitionsPerTable: 3, Domains: db.Domains()})
	defer de.Close()
	for sid := int64(1); sid <= n; sid++ {
		if err := de.Exec(0, db.UpdateLocation(db.SubNbr(sid), 1000+sid)); err != nil {
			t.Fatalf("UpdateLocation(s_id %d): %v", sid, err)
		}
	}
	if got := de.AsyncResolves.Load(); got != n {
		t.Fatalf("DORA ran %d async resolves, want %d", got, n)
	}
	ses := db.SM.Session(0)
	for sid := int64(1); sid <= n; sid++ {
		rec, err := ses.Read(db.SM.Begin(), db.Subscriber, sid)
		if err != nil || rec[subVLRLoc].Int != 1000+sid {
			t.Fatalf("s_id %d: vlr_location = %v, %v, want %d", sid, rec, err, 1000+sid)
		}
	}
}

// TestReadFlowsOnReplica: the TATP read flows run on a read replica
// through ExecReadOnly, whose Env carries the flow's parameter block like
// the engines' do.
func TestReadFlowsOnReplica(t *testing.T) {
	const n = 100
	store := wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: 2048, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Load(s, n); err != nil {
		t.Fatal(err)
	}
	sh, err := repl.AttachPrimary(s, store, repl.Rule{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var rdb *DB
	rep, err := repl.NewReplica(repl.Options{Frames: 2048, DDL: func(rs *sm.SM) error {
		var derr error
		rdb, derr = Schema(rs, n)
		return derr
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := sh.AddReplica("r", repl.LocalLink{R: rep}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for rep.CommitHorizon() < s.LastCommitLSN() {
		if time.Now().After(deadline) {
			t.Fatal("replica did not catch up")
		}
		time.Sleep(time.Millisecond)
	}
	for sid := int64(1); sid <= n; sid++ {
		if err := rep.ExecReadOnly(0, rdb.GetSubscriberData(sid)); err != nil {
			t.Fatalf("GetSubscriberData(%d): %v", sid, err)
		}
		for ai := int64(1); ai <= 4; ai++ {
			if err := rep.ExecReadOnly(0, rdb.GetAccessData(sid, ai)); err != nil {
				t.Fatalf("GetAccessData(%d, %d): %v", sid, ai, err)
			}
		}
	}
	// The bodies read the keys their flows carry: a subscriber past the
	// loaded range is not found.
	if err := rep.ExecReadOnly(0, rdb.GetSubscriberData(n+1)); !errors.Is(err, sm.ErrNotFound) {
		t.Fatalf("GetSubscriberData(%d) on the replica: %v, want not found", n+1, err)
	}
	if got := rep.Reads.Load(); got != 5*n {
		t.Fatalf("replica reads = %d, want %d", got, 5*n)
	}
}

func TestInsertDeleteCallForwarding(t *testing.T) {
	db := loadDB(t, 100)
	de := dora.New(db.SM, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
	defer de.Close()
	nbr := db.SubNbr(7)
	// Ensure a clean slot: delete may fail if absent, so first insert
	// until success at a fixed (sf, st), tolerating a pre-loaded row.
	err := de.Exec(0, db.InsertCallForwarding(nbr, 2, 8, 20, 12345))
	if err != nil && !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("insert: %v", err)
	}
	// Now the row exists either way; delete must succeed.
	if err := de.Exec(0, db.DeleteCallForwarding(nbr, 2, 8)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	// Second delete must abort (no row).
	if err := de.Exec(0, db.DeleteCallForwarding(nbr, 2, 8)); err == nil {
		t.Fatal("double delete should abort")
	}
	if de.Aborted.Load() == 0 {
		t.Fatal("abort not counted")
	}
}

func TestGetNewDestinationPhases(t *testing.T) {
	db := loadDB(t, 100)
	conv := conventional.New(db.SM)
	for sid := int64(1); sid <= 100; sid++ {
		if err := conv.Exec(0, db.GetNewDestination(sid, 1, 0, 8)); err != nil {
			t.Fatalf("sid %d: %v", sid, err)
		}
	}
}

func TestEnginesAgreeOnFinalState(t *testing.T) {
	// Run a deterministic write sequence through each engine on separate
	// DBs; the final subscriber states must match.
	finalVLR := func(t *testing.T, mk func(db *DB) engine.Engine) []int64 {
		db := loadDB(t, 50)
		e := mk(db)
		defer e.Close()
		for i := int64(1); i <= 50; i++ {
			if err := e.Exec(0, db.UpdateLocation(db.SubNbr(i), i*3)); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]int64, 0, 50)
		ses := db.SM.Session(0)
		for i := int64(1); i <= 50; i++ {
			rec, err := ses.Read(db.SM.Begin(), db.Subscriber, i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rec[subVLRLoc].Int)
		}
		return out
	}
	a := finalVLR(t, func(db *DB) engine.Engine { return conventional.New(db.SM) })
	b := finalVLR(t, func(db *DB) engine.Engine {
		return dora.New(db.SM, dora.Config{PartitionsPerTable: 3, Domains: db.Domains()})
	})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("engines disagree at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSIDFlowsAfterRepartitionOntoNbr: once subscriber is partitioned on
// sub_nbr, DORA routes the s_id-keyed GetSubscriberData and
// UpdateSubscriberData through their async resolver (the only resolver
// they carry); the conventional engine, which locks s_id itself, runs
// them with no resolver call at all.
func TestSIDFlowsAfterRepartitionOntoNbr(t *testing.T) {
	const n = 100
	bits := func(db *DB) []int64 {
		out := make([]int64, 0, n)
		ses := db.SM.Session(0)
		for sid := int64(1); sid <= n; sid++ {
			rec, err := ses.Read(db.SM.Begin(), db.Subscriber, sid)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rec[subBit1].Int)
		}
		return out
	}
	run := func(e engine.Engine, db *DB) {
		for sid := int64(1); sid <= n; sid++ {
			if err := e.Exec(0, db.UpdateSubscriberData(sid, 1, (sid+1)%2, sid)); err != nil {
				t.Fatalf("%s: UpdateSubscriberData(%d): %v", e.Name(), sid, err)
			}
			if err := e.Exec(0, db.GetSubscriberData(sid)); err != nil {
				t.Fatalf("%s: GetSubscriberData(%d): %v", e.Name(), sid, err)
			}
		}
	}

	db := loadDB(t, n)
	de := dora.New(db.SM, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
	defer de.Close()
	if err := de.Repartition("subscriber", "sub_nbr", 1, n); err != nil {
		t.Fatal(err)
	}
	run(de, db)
	if got := de.AsyncResolves.Load(); got != 2*n {
		t.Fatalf("DORA ran %d async resolves, want %d (one per s_id-keyed action)", got, 2*n)
	}
	if _, unaligned := de.AlignmentStats(false); unaligned[db.Subscriber.ID]["s_id"] != 2*n {
		t.Fatalf("unaligned s_id dispatches = %d, want %d", unaligned[db.Subscriber.ID]["s_id"], 2*n)
	}
	doraBits := bits(db)

	cdb := loadDB(t, n)
	conv := conventional.New(cdb.SM)
	defer conv.Close()
	run(conv, cdb)
	for i, b := range bits(cdb) {
		if want := int64(i+2) % 2; b != want || doraBits[i] != want {
			t.Fatalf("s_id %d: bit_1 = %d (conventional), %d (DORA), want %d", i+1, b, doraBits[i], want)
		}
	}
}
