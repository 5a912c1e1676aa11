package repl

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/wal"
	"dora/internal/xct"
)

// ddl registers the test schema: (id, name, balance) keyed on id with a
// secondary index on balance — enough to exercise replay's incremental
// primary and secondary index maintenance.
func ddl(s *sm.SM) error {
	_, err := s.CreateTable(sm.TableSpec{
		Name: "accounts",
		Fields: []catalog.Field{
			{Name: "id", Type: tuple.TInt},
			{Name: "name", Type: tuple.TString},
			{Name: "balance", Type: tuple.TInt},
		},
		KeyFields: []string{"id"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
		Secondaries: []sm.IndexSpec{{
			Name:   "by_balance",
			Fields: []string{"balance"},
			Key:    func(r tuple.Record) int64 { return r[2].Int },
		}},
	})
	return err
}

func acct(id int64, name string, bal int64) tuple.Record {
	return tuple.Record{tuple.I(id), tuple.S(name), tuple.I(bal)}
}

// openPrimary opens a primary with a shipper attached under rule K.
func openPrimary(t *testing.T, k int) (*sm.SM, wal.Store, *Shipper) {
	t.Helper()
	store := wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: 256, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := ddl(s); err != nil {
		t.Fatal(err)
	}
	sh, err := AttachPrimary(s, store, Rule{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return s, store, sh
}

func openReplica(t *testing.T) *Replica {
	t.Helper()
	r, err := NewReplica(Options{Frames: 256, DDL: ddl})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// caughtUp reports the replica's commit horizon reaching the primary's.
func caughtUp(s *sm.SM, r *Replica) func() bool {
	return func() bool { return r.CommitHorizon() >= s.LastCommitLSN() }
}

func commitRow(t *testing.T, s *sm.SM, rec tuple.Record) {
	t.Helper()
	tbl := s.Cat.Table("accounts")
	txn := s.Begin()
	if err := s.Session(0).Insert(txn, tbl, rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
}

func replicaRead(t *testing.T, r *Replica, id int64) (tuple.Record, error) {
	t.Helper()
	s := r.SM()
	return s.Session(0).Read(s.Begin(), s.Cat.Table("accounts"), id)
}

func TestShipReplayRead(t *testing.T) {
	s, _, sh := openPrimary(t, 0)
	defer s.Close()
	defer sh.Close()
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 50; i++ {
		commitRow(t, s, acct(i, "a", i*10))
	}
	// Update moves a secondary key; delete removes both index entries.
	tbl := s.Cat.Table("accounts")
	txn := s.Begin()
	if err := s.Session(0).Update(txn, tbl, 1, acct(1, "a", 99999)); err != nil {
		t.Fatal(err)
	}
	if err := s.Session(0).Delete(txn, tbl, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica catch-up", caughtUp(s, rep))

	rec, err := replicaRead(t, rep, 42)
	if err != nil || rec[2].Int != 420 {
		t.Fatalf("replica read 42: %v %v", rec, err)
	}
	if _, err := replicaRead(t, rep, 2); err == nil {
		t.Fatal("deleted row visible on replica")
	}
	rs := rep.SM()
	rec, err = rs.Session(0).ReadByIndex(rs.Begin(), rs.Cat.Table("accounts"), "by_balance", 99999)
	if err != nil || rec[0].Int != 1 {
		t.Fatalf("replica secondary probe: %v %v", rec, err)
	}
	// The last end record ships in a flush after its commit record; only
	// once the whole stream is over does the open-transaction set drain.
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "end records shipped", func() bool {
		return rep.Expected() >= s.Log.Durable() && rep.OpenTxns() == 0
	})
}

func TestCatchUpJoin(t *testing.T) {
	s, _, sh := openPrimary(t, 0)
	defer s.Close()
	defer sh.Close()
	for i := int64(1); i <= 30; i++ {
		commitRow(t, s, acct(i, "a", i))
	}
	// The replica joins late: its missing prefix is read back from the
	// primary's store and queued ahead of the live flow.
	rep := openReplica(t)
	if err := sh.AddReplica("late", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	commitRow(t, s, acct(31, "a", 31))
	waitFor(t, "late replica catch-up", caughtUp(s, rep))
	for i := int64(1); i <= 31; i++ {
		if _, err := replicaRead(t, rep, i); err != nil {
			t.Fatalf("row %d missing after catch-up: %v", i, err)
		}
	}
}

func TestSemiSyncCommitVisibility(t *testing.T) {
	s, _, sh := openPrimary(t, 1)
	defer s.Close()
	defer sh.Close()
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	// Under K=1 a returned commit has been acked by the replica, and the
	// replica acks only after hardening and replaying — the row must be
	// there with no waiting.
	for i := int64(1); i <= 20; i++ {
		commitRow(t, s, acct(i, "a", i))
		if rec, err := replicaRead(t, rep, i); err != nil || rec[2].Int != i {
			t.Fatalf("semi-sync commit %d not visible on replica: %v %v", i, rec, err)
		}
	}
	if sh.Degraded.Load() != 0 {
		t.Fatalf("degraded = %d with a live replica", sh.Degraded.Load())
	}
}

func TestSemiSyncDegradesWithoutReplicas(t *testing.T) {
	s, _, sh := openPrimary(t, 1)
	defer s.Close()
	defer sh.Close()
	done := make(chan error, 1)
	go func() {
		tbl := s.Cat.Table("accounts")
		txn := s.Begin()
		if err := s.Session(0).Insert(txn, tbl, acct(1, "a", 1)); err != nil {
			done <- err
			return
		}
		done <- s.Commit(txn)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("semi-sync commit wedged with zero replicas")
	}
	if sh.Degraded.Load() == 0 {
		t.Fatal("expected a degraded commit")
	}
}

func TestSemiSyncReplicaDeathReleasesWaiters(t *testing.T) {
	s, _, sh := openPrimary(t, 1)
	defer s.Close()
	defer sh.Close()
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	commitRow(t, s, acct(1, "a", 1))
	// Stall the stream by promoting the replica out from under the
	// primary: Deliver starts failing, the sender drops the link, and the
	// parked commit must degrade instead of wedging.
	if _, _, err := rep.Promote(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tbl := s.Cat.Table("accounts")
		txn := s.Begin()
		if err := s.Session(0).Insert(txn, tbl, acct(2, "a", 2)); err != nil {
			done <- err
			return
		}
		done <- s.Commit(txn)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit wedged after replica death")
	}
}

func TestReplicaRefusesWrites(t *testing.T) {
	s, _, sh := openPrimary(t, 0)
	defer s.Close()
	defer sh.Close()
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	commitRow(t, s, acct(1, "a", 1))
	waitFor(t, "replica catch-up", caughtUp(s, rep))

	read := xct.NewFlow("read").AddPhase(&xct.Action{
		Table: "accounts", KeyField: "id", Key: 1, Mode: xct.Read,
		Run: func(env *xct.Env) error {
			rec, err := env.Ses.Read(env.Txn, env.Ses.SM().Cat.Table("accounts"), 1)
			if err == nil && rec[2].Int != 1 {
				err = errors.New("wrong balance")
			}
			return err
		},
	})
	if err := rep.ExecReadOnly(0, read); err != nil {
		t.Fatalf("read-only flow: %v", err)
	}
	write := xct.NewFlow("write").AddPhase(&xct.Action{
		Table: "accounts", KeyField: "id", Key: 9, Mode: xct.Write,
		Run: func(env *xct.Env) error { return nil },
	})
	if err := rep.ExecReadOnly(0, write); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
	if rep.Reads.Load() != 1 {
		t.Fatalf("reads = %d", rep.Reads.Load())
	}
}

func TestTruncationBlocksStaleJoiner(t *testing.T) {
	s, _, sh := openPrimary(t, 0)
	defer s.Close()
	defer sh.Close()
	live := openReplica(t)
	if err := sh.AddReplica("live", LocalLink{live}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 200; i++ {
		commitRow(t, s, acct(i, "a", i))
	}
	waitFor(t, "live replica catch-up", caughtUp(s, live))
	// Checkpoint + trim under the replication constraint: everything is
	// acked, so the store's origin moves up.
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	h, err := s.TrimLog(sh.AckHorizon())
	if err != nil || h == 0 {
		t.Fatalf("trim: h=%d err=%v", h, err)
	}
	// A fresh replica now expects the stream from its beginning, which is
	// gone: catch-up must refuse with full-resync.
	stale := openReplica(t)
	err = sh.AddReplica("stale", LocalLink{stale})
	if err == nil || !strings.Contains(err.Error(), "resync") {
		t.Fatalf("want full-resync refusal, got %v", err)
	}
	// The live replica keeps streaming across the truncation.
	commitRow(t, s, acct(500, "post-trim", 500))
	waitFor(t, "post-trim ship", caughtUp(s, live))
	if _, err := replicaRead(t, live, 500); err != nil {
		t.Fatalf("post-trim row: %v", err)
	}
}

// TestTrimmerUnderReplicaAck: the log trimmer, constrained by the
// shipper's ack horizon, keeps truncating the primary's log while a
// replica streams: trims happen, the store's origin never passes the
// slowest replica's ack, and the replica keeps up across them.
func TestTrimmerUnderReplicaAck(t *testing.T) {
	s, store, sh := openPrimary(t, 0)
	defer s.Close()
	defer sh.Close()
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	tr := &sm.Trimmer{SM: s, Interval: time.Millisecond, Threshold: 16 << 10, AckHorizon: sh.AckHorizon}
	tr.Start()
	deadline := time.Now().Add(10 * time.Second)
	id := int64(0)
	for tr.Trims.Load() == 0 && time.Now().Before(deadline) {
		id++
		commitRow(t, s, acct(id, "trim", id))
	}
	tr.Stop()
	if tr.Trims.Load() == 0 {
		t.Fatalf("no WAL trims after %d replicated commits", id)
	}
	raw, err := store.Contents()
	if err != nil {
		t.Fatal(err)
	}
	origin, _, err := wal.StreamOrigin(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ack := sh.AckHorizon(); origin > ack {
		t.Fatalf("log truncated to %d, past the replica's ack horizon %d", origin, ack)
	}
	waitFor(t, "replica catch-up across trims", caughtUp(s, rep))
	if rec, err := replicaRead(t, rep, id); err != nil || rec[2].Int != id {
		t.Fatalf("last row on the replica: %v %v", rec, err)
	}
}

func TestAheadReplicaRefused(t *testing.T) {
	s, _, sh := openPrimary(t, 0)
	defer s.Close()
	defer sh.Close()
	// A replica whose stream runs past the primary's holds divergent
	// history (un-truncated ex-primary) and must be refused.
	store2 := wal.NewMemStore()
	s2, err := sm.Open(sm.Options{Frames: 128, LogStore: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := ddl(s2); err != nil {
		t.Fatal(err)
	}
	commitRow(t, s2, acct(1, "divergent", 1))
	rep, err := NewReplica(Options{Frames: 128, DDL: ddl, LogStore: store2, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	err = sh.AddReplica("ahead", LocalLink{rep})
	if err == nil || !strings.Contains(err.Error(), "divergent") {
		t.Fatalf("want divergence refusal, got %v", err)
	}
}

func TestTCPTransport(t *testing.T) {
	s, _, sh := openPrimary(t, 1)
	defer s.Close()
	defer sh.Close()
	rep := openReplica(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, rep)
	link, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.AddReplica("tcp", link); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 25; i++ {
		commitRow(t, s, acct(i, "a", i))
	}
	waitFor(t, "tcp replica catch-up", caughtUp(s, rep))
	for i := int64(1); i <= 25; i++ {
		if rec, err := replicaRead(t, rep, i); err != nil || rec[2].Int != i {
			t.Fatalf("row %d over tcp: %v %v", i, rec, err)
		}
	}
}
