package repl

import (
	"errors"
	"sync/atomic"
	"testing"

	"dora/internal/buffer"
	"dora/internal/sm"
	"dora/internal/wal"
	"dora/internal/wal/clog"
	"dora/internal/xct"
)

// readFlow builds a read-only flow probing accounts[key].
func readFlow(key int64) *xct.Flow {
	return xct.NewFlow("probe").AddPhase(&xct.Action{
		Table: "accounts", KeyField: "id", Key: key, Mode: xct.Read,
		Run: func(env *xct.Env) error {
			_, err := env.Ses.Read(env.Txn, env.Ses.SM().Cat.Table("accounts"), key)
			return err
		},
	})
}

// TestUncommittedInvisibleOnReplica: group commit ships a transaction's
// update records before its commit record — the replica must not expose
// them until the commit arrives, and must never expose them if the
// transaction aborts (its CLRs cancel the queued records before any of
// them reach the heap).
func TestUncommittedInvisibleOnReplica(t *testing.T) {
	s, _, sh := openPrimary(t, 0)
	defer s.Close()
	defer sh.Close()
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	commitRow(t, s, acct(1, "a", 1))
	waitFor(t, "catch-up", caughtUp(s, rep))
	tbl := s.Cat.Table("accounts")

	// In-flight transaction: its insert hardens and ships, no commit yet.
	txn := s.Begin()
	if err := s.Session(0).Insert(txn, tbl, acct(2, "dirty", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "uncommitted records shipped", func() bool {
		return rep.Expected() >= s.Log.Durable()
	})
	if rep.OpenTxns() == 0 {
		t.Fatal("uncommitted txn not tracked on replica")
	}
	if _, err := replicaRead(t, rep, 2); err == nil {
		t.Fatal("uncommitted row visible on replica (dirty read)")
	}
	// Commit resolves it: the whole transaction becomes visible.
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "commit replayed", caughtUp(s, rep))
	if rec, err := replicaRead(t, rep, 2); err != nil || rec[2].Int != 2 {
		t.Fatalf("committed row: %v %v", rec, err)
	}

	// An aborted transaction's records must never surface: insert ships,
	// then the rollback's CLR + end cancel it in the queue.
	txn2 := s.Begin()
	if err := s.Session(0).Insert(txn2, tbl, acct(3, "aborted", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "loser records shipped", func() bool {
		return rep.Expected() >= s.Log.Durable()
	})
	if _, err := replicaRead(t, rep, 3); err == nil {
		t.Fatal("in-flight row visible on replica")
	}
	if err := s.Rollback(txn2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rollback replayed", func() bool {
		_ = s.Log.FlushAll()
		return rep.Expected() >= s.Log.Durable() && rep.OpenTxns() == 0
	})
	if _, err := replicaRead(t, rep, 3); err == nil {
		t.Fatal("aborted row visible on replica")
	}
	// The consistent horizon caught the delivery horizon once everything
	// resolved.
	if rep.AppliedLSN() != rep.Expected() {
		t.Fatalf("applied %d != delivered %d after quiesce", rep.AppliedLSN(), rep.Expected())
	}
}

// TestApplyErrorFailsReplica: an error while replaying a hardened extent
// must fail-stop the replica — its log is ahead of its state and
// delivery dedupes against the log, so serving reads or promoting would
// expose divergent state.
func TestApplyErrorFailsReplica(t *testing.T) {
	// Craft a hardened stream whose records reference a table the replica
	// does not have: analysis accepts it, application cannot.
	badStore := wal.NewMemStore()
	lg, err := clog.New(badStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	lg.Append(&wal.Record{Kind: wal.KInsert, TxnID: 7, Table: 999, Redo: []byte{1, 2, 3}})
	lg.Append(&wal.Record{Kind: wal.KCommit, TxnID: 7, PrevLSN: wal.LSN(wal.HeaderSize)})
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	origin, body := streamBody(t, badStore)

	rep := openReplica(t)
	if _, err := rep.Deliver(origin, body); !errors.Is(err, ErrFailed) {
		t.Fatalf("want ErrFailed from poisoned delivery, got %v", err)
	}
	if rep.Failed() == nil {
		t.Fatal("replica not marked failed")
	}
	if _, err := rep.Deliver(rep.Expected(), nil); !errors.Is(err, ErrFailed) {
		t.Fatalf("delivery after failure: want ErrFailed, got %v", err)
	}
	if err := rep.ExecReadOnly(0, readFlow(1)); !errors.Is(err, ErrFailed) {
		t.Fatalf("read on failed replica: want ErrFailed, got %v", err)
	}
	if _, _, err := rep.Promote(); !errors.Is(err, ErrFailed) {
		t.Fatalf("promote of failed replica: want ErrFailed, got %v", err)
	}
}

// flakyStore injects Contents failures, exercising the shipper's
// gap-heal error path.
type flakyStore struct {
	wal.Store
	fail atomic.Bool
}

func (f *flakyStore) Contents() ([]byte, error) {
	if f.fail.Load() {
		return nil, errors.New("injected store read failure")
	}
	return f.Store.Contents()
}

// TestSinkHealFailureHoldsExtent: when the sink cannot heal a stream gap
// from the store, it must hold the out-of-order extent back (it is
// hardened; the next sink call re-heals) instead of pushing it and
// tearing every link down on a stream-gap error.
func TestSinkHealFailureHoldsExtent(t *testing.T) {
	store := wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: 256, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := ddl(s); err != nil {
		t.Fatal(err)
	}
	fl := &flakyStore{Store: store}
	sh, err := AttachPrimary(s, fl, Rule{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	commitRow(t, s, acct(1, "a", 1))
	waitFor(t, "catch-up", caughtUp(s, rep))

	// Open a gap: harden extents while the sink is detached.
	src := s.Log.(wal.ExtentSource)
	src.SetExtentSink(nil)
	commitRow(t, s, acct(2, "a", 2))
	commitRow(t, s, acct(3, "a", 3))
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	src.SetExtentSink(sh.sink)

	// The next extent needs a heal, and the store read fails: the extent
	// must be held back with the link intact.
	fl.fail.Store(true)
	commitRow(t, s, acct(4, "a", 4))
	waitFor(t, "heal failure observed", func() bool {
		_ = s.Log.FlushAll()
		return sh.HealFails.Load() > 0
	})
	if n := len(sh.Replicas()); n != 1 {
		t.Fatalf("live links after heal failure = %d, want 1 (link torn down)", n)
	}
	if _, err := replicaRead(t, rep, 2); err == nil {
		t.Fatal("replica received post-gap data out of order")
	}

	// Store reads recover: the next sink call heals the whole gap —
	// including the held-back extent — and the stream converges.
	fl.fail.Store(false)
	commitRow(t, s, acct(5, "a", 5))
	waitFor(t, "post-heal convergence", caughtUp(s, rep))
	for i := int64(1); i <= 5; i++ {
		if rec, err := replicaRead(t, rep, i); err != nil || rec[2].Int != i {
			t.Fatalf("row %d after heal: %v %v", i, rec, err)
		}
	}
	if n := len(sh.Replicas()); n != 1 {
		t.Fatalf("live links after recovery = %d, want 1", n)
	}
}

// TestBootstrapWarmingGatesReads: bootstrap redo replays every retained
// record — including those of transactions in flight at the truncation
// point — so until the stream resolves each of them, read-only flows
// must be refused rather than exposed to uncommitted ex-primary state.
func TestBootstrapWarmingGatesReads(t *testing.T) {
	storeA := wal.NewMemStore()
	diskA := buffer.NewMemDisk()
	a, err := sm.Open(sm.Options{Frames: 256, Disk: diskA, LogStore: storeA})
	if err != nil {
		t.Fatal(err)
	}
	if err := ddl(a); err != nil {
		t.Fatal(err)
	}
	shA, err := AttachPrimary(a, storeA, Rule{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	b := openReplica(t)
	if err := shA.AddReplica("b", LocalLink{b}); err != nil {
		t.Fatal(err)
	}
	commitRow(t, a, acct(1, "a", 1))
	// A transaction is still in flight when the primary dies; its insert
	// hardened (and shipped), its resolution never did.
	loser := a.Begin()
	if err := a.Session(0).Insert(loser, a.Cat.Table("accounts"), acct(2, "loser", 2)); err != nil {
		t.Fatal(err)
	}
	if err := a.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream shipped", func() bool { return b.Expected() >= a.Log.Durable() })
	shA.Close()
	_ = a.Log.Close() // crash

	nb, _, err := b.Promote() // rolls the loser back with CLRs
	if err != nil {
		t.Fatal(err)
	}
	shB, err := AttachPrimary(nb, b.store, Rule{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer shB.Close()

	// The ex-primary rejoins: truncate at the promotion point (a no-op
	// here — nothing past it), bootstrap from its own log and disk.
	if err := wal.TruncateTail(storeA, b.PromotionLSN()); err != nil {
		t.Fatal(err)
	}
	a2, err := NewReplica(Options{Frames: 256, Disk: diskA, LogStore: storeA, DDL: ddl, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Warming() == 0 {
		t.Fatal("bootstrapped replica with an in-flight txn is not warming")
	}
	if err := a2.ExecReadOnly(0, readFlow(1)); !errors.Is(err, ErrWarming) {
		t.Fatalf("read while warming: want ErrWarming, got %v", err)
	}
	// Joining the new primary delivers the promotion's CLR + end for the
	// loser; warming clears and reads are admitted.
	if err := shB.AddReplica("a", LocalLink{a2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "warming cleared", func() bool {
		_ = nb.Log.FlushAll()
		return a2.Warming() == 0
	})
	if err := a2.ExecReadOnly(0, readFlow(1)); err != nil {
		t.Fatalf("read after warming: %v", err)
	}
	if _, err := replicaRead(t, a2, 2); err == nil {
		t.Fatal("loser row survived on rejoined replica")
	}
}
