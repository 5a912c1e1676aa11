package dora

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/xct"
)

// rig2 builds an SM with TWO tables over the same key domain — accounts
// (balance 100 per row) and ledger (counter 0 per row) — so an action
// routed to an accounts worker that touches ledger always crosses
// partitions (each table has its own workers).
func rig2(t *testing.T, n int64, parts int, cfg Config) (*sm.SM, *catalog.Table, *catalog.Table, *Dora) {
	t.Helper()
	s, err := sm.Open(sm.Options{Frames: 512})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, val int64) *catalog.Table {
		tbl, err := s.CreateTable(sm.TableSpec{
			Name: name,
			Fields: []catalog.Field{
				{Name: "id", Type: tuple.TInt},
				{Name: "v", Type: tuple.TInt},
			},
			KeyFields: []string{"id"},
			Key:       func(r tuple.Record) int64 { return r[0].Int },
		})
		if err != nil {
			t.Fatal(err)
		}
		ses := s.Session(0)
		load := s.Begin()
		for i := int64(1); i <= n; i++ {
			if err := ses.Insert(load, tbl, tuple.Record{tuple.I(i), tuple.I(val)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(load); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	acct := mk("accounts", 100)
	ledger := mk("ledger", 0)
	cfg.PartitionsPerTable = parts
	if cfg.Domains == nil {
		cfg.Domains = map[string][2]int64{"accounts": {1, n}, "ledger": {1, n}}
	}
	e := New(s, cfg)
	t.Cleanup(func() { _ = e.Close() })
	return s, acct, ledger, e
}

// xferFlow2 is the cross-partition transaction: one action on
// accounts[k] that bumps it locally and bumps ledger[k] through a
// foreign op — suspending on it when the engine offers an AsyncHost,
// shipping blocking otherwise.
func xferFlow2(acct, ledger *catalog.Table, k int64) *xct.Flow {
	bump := func(r tuple.Record) tuple.Record {
		r[1] = tuple.I(r[1].Int + 1)
		return r
	}
	return xct.NewFlow("xfer2").AddPhase(&xct.Action{
		Table: "accounts", KeyField: "id", Key: k, Mode: xct.Write,
		Run: func(env *xct.Env) error {
			if err := env.Ses.Mutate(env.Txn, acct, k, bump); err != nil {
				return err
			}
			resume := env.Async.Suspend()
			env.Ses.MutateAsync(env.Txn, ledger, k, bump, env.Async.Home(), resume)
			return nil
		},
	})
}

// sumCol totals column v over [1, n] through a fresh shared session.
func sumCol(t *testing.T, s *sm.SM, tbl *catalog.Table, n int64) int64 {
	t.Helper()
	ses := s.Session(99)
	txn := s.Begin()
	var total int64
	for i := int64(1); i <= n; i++ {
		rec, err := ses.Read(txn, tbl, i)
		if err != nil {
			t.Fatalf("read %s[%d]: %v", tbl.Name, i, err)
		}
		total += rec[1].Int
	}
	return total
}

// TestContinuationShipCommits: the basic end-to-end path — the foreign
// op rides a continuation shipMsg, the suspended action resumes through
// a kontMsg, and both sides of the transaction commit exactly once.
func TestContinuationShipCommits(t *testing.T) {
	s, acct, ledger, e := rig2(t, 50, 2, Config{})
	const txns = 200
	for i := 0; i < txns; i++ {
		k := int64(i%50) + 1
		if err := e.Exec(0, xferFlow2(acct, ledger, k)); err != nil {
			t.Fatalf("xfer %d: %v", i, err)
		}
	}
	ss := e.ShipSnapshot()
	if ss.ContShips == 0 {
		t.Fatal("no continuation ships: the foreign ops did not ride continuation shipMsgs")
	}
	if ss.BlockingShips != 0 {
		t.Fatalf("blocking ships = %d in continuation mode", ss.BlockingShips)
	}
	if ss.KontsRun == 0 {
		t.Fatal("no continuations delivered")
	}
	if ss.SuspendedNow != 0 {
		t.Fatalf("suspended actions leaked: %d", ss.SuspendedNow)
	}
	if got := sumCol(t, s, acct, 50); got != 50*100+txns {
		t.Fatalf("accounts total = %d, want %d", got, 50*100+txns)
	}
	if got := sumCol(t, s, ledger, 50); got != txns {
		t.Fatalf("ledger total = %d, want %d", got, txns)
	}
}

// TestContinuationShipsOverlap: with concurrent clients, every foreign
// op rides a continuation ship (no worker ever parks on a blocking
// ship), and an accounts worker runs later actions while an earlier one
// of its own is suspended on an in-flight ledger op — the sender keeps
// draining its inbox. The ledger half of each transaction does a fixed
// amount of work on the owner's thread so suspensions last long enough
// to overlap.
// Side effects stay exactly-once.
func TestContinuationShipsOverlap(t *testing.T) {
	const n, clients = 64, 4
	s, acct, ledger, e := rig2(t, n, 2, Config{})
	bump := func(r tuple.Record) tuple.Record {
		r[1] = tuple.I(r[1].Int + 1)
		return r
	}
	slowBump := func(r tuple.Record) tuple.Record {
		x := uint64(88172645463325252)
		for i := 0; i < 20000; i++ { // a fixed amount of owner-side work
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if x == 0 { // never: xorshift keeps a non-zero state non-zero
			return r
		}
		return bump(r)
	}
	xfer := func(k int64) *xct.Flow {
		return xct.NewFlow("xfer-slow").AddPhase(&xct.Action{
			Table: "accounts", KeyField: "id", Key: k, Mode: xct.Write,
			Run: func(env *xct.Env) error {
				if err := env.Ses.Mutate(env.Txn, acct, k, bump); err != nil {
					return err
				}
				resume := env.Async.Suspend()
				env.Ses.MutateAsync(env.Txn, ledger, k, slowBump, env.Async.Home(), resume)
				return nil
			},
		})
	}
	var committed atomic.Int64
	var execErr atomic.Value
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100 || (e.ShipSnapshot().OverlapExec == 0 && time.Now().Before(deadline)); i++ {
				if err := e.Exec(c, xfer(int64((c*17+i)%n)+1)); err != nil {
					execErr.Store(err)
					return
				}
				committed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if err := execErr.Load(); err != nil {
		t.Fatalf("xfer: %v", err)
	}
	// Snapshot before the verification reads, which ship blocking from a
	// plain session.
	ss := e.ShipSnapshot()
	if ss.ContShips == 0 {
		t.Fatal("no continuation ships")
	}
	if ss.BlockingShips != 0 {
		t.Fatalf("blocking ships = %d, want 0: a worker parked on a ship", ss.BlockingShips)
	}
	if ss.OverlapExec == 0 {
		t.Fatal("no overlap: no worker ran an action while one of its own was suspended")
	}
	if got, want := sumCol(t, s, acct, n), n*100+committed.Load(); got != want {
		t.Fatalf("accounts total = %d, want %d", got, want)
	}
	if got := sumCol(t, s, ledger, n); got != committed.Load() {
		t.Fatalf("ledger total = %d, want %d", got, committed.Load())
	}
}

// TestContinuationAbortCompensatesBothSides: a phase whose suspending
// action succeeds while a sibling fails must roll BOTH tables back —
// the compensation rides RollbackAsync in continuation mode.
func TestContinuationAbortCompensatesBothSides(t *testing.T) {
	s, acct, ledger, e := rig2(t, 50, 2, Config{})
	boom := &xct.Action{
		Table: "accounts", KeyField: "id", Key: 40, Mode: xct.Write,
		Run: func(env *xct.Env) error { return errFailAction },
	}
	flow := xferFlow2(acct, ledger, 7)
	flow.Phases[0].Actions = append(flow.Phases[0].Actions, boom)
	if err := e.Exec(0, flow); err == nil {
		t.Fatal("flow with failing action committed")
	}
	if got := sumCol(t, s, acct, 50); got != 50*100 {
		t.Fatalf("accounts total after abort = %d, want %d", got, 50*100)
	}
	if got := sumCol(t, s, ledger, 50); got != 0 {
		t.Fatalf("ledger total after abort = %d, want 0", got)
	}
	// The engine still works (locks released, no stranded suspensions).
	if err := e.Exec(0, xferFlow2(acct, ledger, 7)); err != nil {
		t.Fatalf("exec after abort: %v", err)
	}
	if ss := e.ShipSnapshot(); ss.SuspendedNow != 0 {
		t.Fatalf("suspended actions leaked after abort: %d", ss.SuspendedNow)
	}
}

var errFailAction = errTest("action failed")

type errTest string

func (e errTest) Error() string { return string(e) }

// TestContinuationCycleDiagnosedNotFatal: a ship chain that revisits a
// worker over continuation hops cannot wedge (nobody is parked), so the
// debug detector diagnoses it and lets it complete.
func TestContinuationCycleDiagnosedNotFatal(t *testing.T) {
	_, _, _, e := rig2(t, 100, 2, Config{DebugShipCheck: true})
	rt := e.Router("accounts")
	ranges := rt.Ranges()
	if len(ranges) < 2 {
		t.Fatal("need 2 ranges")
	}
	vA, vB := ranges[0].Lo, ranges[1].Lo
	done := make(chan bool, 1)
	e.ExecOnOwnerAsync("accounts", vA, func(*OwnerCtx) { // hop 1: -> A (not parked)
		e.ExecOnOwnerAsync("accounts", vB, func(*OwnerCtx) { // hop 2: A -> B (not parked)
			e.ExecOnOwnerAsync("accounts", vA, func(*OwnerCtx) { // hop 3: B -> A — cycle, but A drains
			}, func(ok bool) { done <- ok })
		}, func(bool) {})
	}, func(bool) {})
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("cyclic continuation ship failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cyclic continuation ship wedged — continuation mode must not deadlock")
	}
	ss := e.ShipSnapshot()
	if ss.CyclesDiagnosed == 0 {
		t.Fatal("cycle not diagnosed")
	}
	if ss.LastCycle == "" {
		t.Fatal("no cycle diagnostic recorded")
	}
}

// TestContinuationRepartitionStorm drives cross-partition transactions
// through a split/merge storm on BOTH tables under -race: suspended
// actions must survive senders being split, owners being merged away
// mid-flight, and continuations being forwarded along merge chains —
// with no lost or double-run continuation and exactly-once commit
// effects on both tables.
func TestContinuationRepartitionStorm(t *testing.T) {
	const n = 100
	s, acct, ledger, e := rig2(t, n, 2, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var execErr error
	var committed int64
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
				k := int64((c*31+i*7)%n) + 1
				i++
				if err := e.Exec(c, xferFlow2(acct, ledger, k)); err != nil {
					mu.Lock()
					if execErr == nil {
						execErr = err
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				committed++
				mu.Unlock()
			}
		}(c)
	}
	// The storm: repeated split+merge cycles on both tables while the
	// traffic runs. Splits land mid-range; merges fold the new worker
	// straight back, exercising evacuation (continuation forwarding).
	storms := 30
	if testing.Short() {
		storms = 8
	}
	for cycle := 0; cycle < storms; cycle++ {
		for _, table := range []string{"accounts", "ledger"} {
			rt := e.Router(table)
			ranges := rt.Ranges()
			r := ranges[cycle%len(ranges)]
			if r.Hi-r.Lo < 2 {
				continue
			}
			nw, err := e.SplitPartition(table, r.Part, r.Lo+(r.Hi-r.Lo)/2)
			if err != nil {
				continue // the range moved under us; next cycle
			}
			time.Sleep(time.Millisecond)
			if err := e.MergePartition(table, nw, r.Part); err != nil {
				t.Errorf("storm merge %s: %v", table, err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if execErr != nil {
		t.Fatalf("exec during storm: %v", execErr)
	}
	// Exactly-once: each commit bumped one accounts row and one ledger
	// row; nothing was lost or doubled through the storms.
	if got := sumCol(t, s, acct, n); got != n*100+committed {
		t.Fatalf("accounts total = %d, want %d (lost/double-run continuations)", got, n*100+committed)
	}
	if got := sumCol(t, s, ledger, n); got != committed {
		t.Fatalf("ledger total = %d, want %d (lost/double-run continuations)", got, committed)
	}
	if ss := e.ShipSnapshot(); ss.SuspendedNow != 0 {
		t.Fatalf("suspended actions leaked: %d", ss.SuspendedNow)
	}
}

// TestExecAsyncClientNonBlocking: the flow-graph executor's asynchronous
// client entry — the caller is free while the RVP countdown drives the
// flow; done fires with the verdict.
func TestExecAsyncClientNonBlocking(t *testing.T) {
	s, acct, ledger, e := rig2(t, 20, 2, Config{})
	results := make(chan error, 50)
	for i := 0; i < 50; i++ {
		e.ExecAsync(0, xferFlow2(acct, ledger, int64(i%20)+1), func(err error) { results <- err })
	}
	for i := 0; i < 50; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("async exec: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("ExecAsync verdicts never arrived")
		}
	}
	if got := sumCol(t, s, ledger, 20); got != 50 {
		t.Fatalf("ledger total = %d, want 50", got)
	}
}
