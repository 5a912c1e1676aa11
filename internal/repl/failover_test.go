package repl

import (
	"strings"
	"sync"
	"testing"

	"dora/internal/buffer"
	"dora/internal/sm"
	"dora/internal/tuple"
	"dora/internal/wal"
	"dora/internal/xct"
)

// streamBody returns a store's stream origin and body bytes.
func streamBody(t *testing.T, store wal.Store) (uint64, []byte) {
	t.Helper()
	raw, err := store.Contents()
	if err != nil {
		t.Fatal(err)
	}
	origin, body, err := wal.StreamOrigin(raw)
	if err != nil {
		t.Fatal(err)
	}
	return origin, body
}

// TestTornExtentNotApplied delivers a group extent cut mid-record — the
// shape a primary crash leaves mid-ship — and checks the replica persists
// and replays only the whole-record prefix, then heals when the full
// extent is retried.
func TestTornExtentNotApplied(t *testing.T) {
	s, store, _ := func() (*sm.SM, wal.Store, *Shipper) {
		return openPrimary(t, 0)
	}()
	defer s.Close()
	for i := int64(1); i <= 10; i++ {
		commitRow(t, s, acct(i, "a", i))
	}
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	origin, body := streamBody(t, store)

	rep := openReplica(t)
	cut := len(body) - 3 // mid-record
	ack, err := rep.Deliver(origin, body[:cut])
	if err != nil {
		t.Fatalf("torn delivery: %v", err)
	}
	if ack >= origin+uint64(len(body)) {
		t.Fatalf("torn extent fully acked: %d", ack)
	}
	if ack > origin+uint64(cut) {
		t.Fatalf("acked past delivery: %d", ack)
	}
	// Retry with the full extent: the overlap is trimmed, the tail lands.
	ack2, err := rep.Deliver(origin, body)
	if err != nil {
		t.Fatal(err)
	}
	if want := origin + uint64(len(body)); ack2 != want {
		t.Fatalf("ack = %d, want %d", ack2, want)
	}
	for i := int64(1); i <= 10; i++ {
		if rec, err := replicaRead(t, rep, i); err != nil || rec[2].Int != i {
			t.Fatalf("row %d after heal: %v %v", i, rec, err)
		}
	}
	// Pure duplicate and gapped deliveries.
	if _, err := rep.Deliver(origin, body[:cut]); err != nil {
		t.Fatalf("duplicate delivery: %v", err)
	}
	if _, err := rep.Deliver(ack2+100, []byte{1, 2, 3}); err == nil {
		t.Fatal("gap accepted")
	}
}

// TestPromoteExactlyOnce: every commit acknowledged under the semi-sync
// rule survives failover exactly once; the unshipped tail does not.
func TestPromoteExactlyOnce(t *testing.T) {
	s, _, sh := openPrimary(t, 1)
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	const acked, tail = 120, 30
	for i := int64(1); i <= acked; i++ {
		commitRow(t, s, acct(i, "a", i)) // returned ⇒ replica acked it
	}
	lastAcked := s.LastCommitLSN()
	// "Crash": shipping stops; the tail commits complete degraded and
	// never reach the replica — the divergent suffix of the dead primary.
	sh.Close()
	for i := int64(acked + 1); i <= acked+tail; i++ {
		commitRow(t, s, acct(i, "a", i))
	}

	ns, st, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Promoted() {
		t.Fatal("not promoted")
	}
	if h := rep.CommitHorizon(); h < lastAcked {
		t.Fatalf("promoted replica's commit horizon %d short of the last acked commit %d", h, lastAcked)
	}
	ses := ns.Session(0)
	tbl := ns.Cat.Table("accounts")
	n := 0
	if err := ses.ScanRange(ns.Begin(), tbl, 1, acked+tail, func(key int64, rec tuple.Record) bool {
		if key > acked {
			t.Fatalf("unacked tail row %d survived failover", key)
		}
		if rec[2].Int != key {
			t.Fatalf("row %d corrupt: %v", key, rec)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != acked {
		t.Fatalf("acked rows after promote = %d, want %d (exactly-once)", n, acked)
	}
	// The new primary is writable.
	txn := ns.Begin()
	if err := ses.Insert(txn, tbl, acct(1000, "post-failover", 1)); err != nil {
		t.Fatal(err)
	}
	if err := ns.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Read(ns.Begin(), tbl, 1000); err != nil {
		t.Fatal(err)
	}
	_ = st
	// Delivery after promotion is refused.
	if _, err := rep.Deliver(rep.Expected(), []byte{1}); err != ErrPromoted {
		t.Fatalf("want ErrPromoted, got %v", err)
	}
}

// TestPromoteRollsBackInFlight: a transaction open at the end of the
// stream never committed anywhere — promotion must roll it back with CLRs.
func TestPromoteRollsBackInFlight(t *testing.T) {
	s, _, sh := openPrimary(t, 0)
	defer s.Close()
	defer sh.Close()
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	commitRow(t, s, acct(1, "committed", 1))
	loser := s.Begin()
	for i := int64(10); i < 13; i++ {
		if err := s.Session(0).Insert(loser, s.Cat.Table("accounts"), acct(i, "loser", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Log.FlushAll(); err != nil { // harden + ship without committing
		t.Fatal(err)
	}
	waitFor(t, "loser records shipped", func() bool {
		return rep.Expected() >= s.Log.Durable()
	})
	if rep.OpenTxns() != 1 {
		t.Fatalf("open txns on replica = %d", rep.OpenTxns())
	}

	ns, st, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if st.Losers != 1 || st.Undone != 3 {
		t.Fatalf("promote stats = %+v", st)
	}
	ses := ns.Session(0)
	tbl := ns.Cat.Table("accounts")
	if _, err := ses.Read(ns.Begin(), tbl, 1); err != nil {
		t.Fatalf("committed row lost: %v", err)
	}
	for i := int64(10); i < 13; i++ {
		if _, err := ses.Read(ns.Begin(), tbl, i); err == nil {
			t.Fatalf("loser row %d survived promotion", i)
		}
	}
}

// TestPromoteAfterCommitRecord: a stream cut right after a commit record
// leaves nothing open — the commit record is its transaction's last — so
// promotion undoes nothing and the committed row is present.
func TestPromoteAfterCommitRecord(t *testing.T) {
	s, store, _ := openPrimary(t, 0)
	defer s.Close()
	commitRow(t, s, acct(1, "w", 1))
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	origin, body := streamBody(t, store)
	// Find the last commit record and deliver the stream cut right after it.
	var cut uint64
	if _, err := wal.DecodeStream(origin, body, func(r *wal.Record) error {
		if r.Kind == wal.KCommit {
			cut = r.LSN + uint64(wal.EncodedSize(r))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cut == 0 {
		t.Fatal("no commit record found")
	}
	rep := openReplica(t)
	if _, err := rep.Deliver(origin, body[:cut-origin]); err != nil {
		t.Fatal(err)
	}
	if rep.OpenTxns() != 0 {
		t.Fatalf("open txns = %d, want 0", rep.OpenTxns())
	}
	ns, st, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if st.Open != 0 || st.Losers != 0 || st.Undone != 0 {
		t.Fatalf("promote stats = %+v, want nothing undone", st)
	}
	if rec, err := ns.Session(0).Read(ns.Begin(), ns.Cat.Table("accounts"), 1); err != nil || rec[2].Int != 1 {
		t.Fatalf("committed row: %v %v", rec, err)
	}
}

// TestRejoinAfterFailover: the dead primary comes back, truncates its
// divergent tail at the promotion point, bootstraps from its own log and
// disk, and rejoins the new primary as a replica.
func TestRejoinAfterFailover(t *testing.T) {
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
	for i := int64(1); i <= 50; i++ {
		commitRow(t, a, acct(i, "a", i))
	}
	waitFor(t, "b catch-up", caughtUp(a, b))
	// Partition: B stops receiving; A commits a divergent tail, then dies.
	shA.DropReplica("b")
	for i := int64(51); i <= 60; i++ {
		commitRow(t, a, acct(i, "a", i))
	}
	shA.Close()
	_ = a.Log.Close() // crash: stop the flush daemon; pages stay unflushed

	// Failover to B.
	nb, _, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	shB, err := AttachPrimary(nb, b.store, Rule{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer shB.Close()
	commitRow(t, nb, acct(100, "b-era", 100))

	// Rejoin A: truncate the unacked tail at the promotion point, then
	// bootstrap over the old log and disk.
	if err := wal.TruncateTail(storeA, b.PromotionLSN()); err != nil {
		t.Fatal(err)
	}
	a2, err := NewReplica(Options{Frames: 256, Disk: diskA, LogStore: storeA, DDL: ddl, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a2.Expected(), b.PromotionLSN(); got != want {
		t.Fatalf("rejoined expected = %d, want %d", got, want)
	}
	if err := shB.AddReplica("a", LocalLink{a2}); err != nil {
		t.Fatal(err)
	}
	commitRow(t, nb, acct(101, "b-era", 101))
	waitFor(t, "a2 catch-up", caughtUp(nb, a2))
	// Pre-failover state survived, the divergent tail did not, and the
	// new primary's history arrived.
	for i := int64(1); i <= 50; i++ {
		if _, err := replicaRead(t, a2, i); err != nil {
			t.Fatalf("row %d lost on rejoin: %v", i, err)
		}
	}
	for i := int64(51); i <= 60; i++ {
		if _, err := replicaRead(t, a2, i); err == nil {
			t.Fatalf("divergent row %d survived tail truncation", i)
		}
	}
	for _, id := range []int64{100, 101} {
		if _, err := replicaRead(t, a2, id); err != nil {
			t.Fatalf("b-era row %d missing: %v", id, err)
		}
	}
}

// TestRejoinDivergentDiskRefused: an ex-primary that flushed pages under
// its divergent tail cannot rejoin by log truncation alone.
func TestRejoinDivergentDiskRefused(t *testing.T) {
	storeA := wal.NewMemStore()
	diskA := buffer.NewMemDisk()
	a, err := sm.Open(sm.Options{Frames: 256, Disk: diskA, LogStore: storeA})
	if err != nil {
		t.Fatal(err)
	}
	if err := ddl(a); err != nil {
		t.Fatal(err)
	}
	commitRow(t, a, acct(1, "a", 1))
	promoteAt := a.Log.Durable() // the stand-in promotion point
	commitRow(t, a, acct(2, "divergent", 2))
	if _, err := a.Checkpoint(); err != nil { // flushes pages at divergent LSNs
		t.Fatal(err)
	}
	_ = a.Log.Close()
	if err := wal.TruncateTail(storeA, promoteAt); err != nil {
		t.Fatal(err)
	}
	_, err = NewReplica(Options{Frames: 256, Disk: diskA, LogStore: storeA, DDL: ddl, Bootstrap: true})
	if err == nil || !strings.Contains(err.Error(), "resync") {
		t.Fatalf("want full-resync refusal, got %v", err)
	}
}

// TestReplicationStormRace is the -race workout: concurrent writers on
// the primary, read-only sessions on the replica, promotion mid-run.
func TestReplicationStormRace(t *testing.T) {
	s, _, sh := openPrimary(t, 1)
	rep := openReplica(t)
	if err := sh.AddReplica("b", LocalLink{rep}); err != nil {
		t.Fatal(err)
	}
	const keys = 64
	tbl := s.Cat.Table("accounts")
	for i := int64(0); i < keys; i++ {
		commitRow(t, s, acct(i, "k", 0))
	}

	// Each writer owns a disjoint 16-key slice (raw sessions have no lock
	// manager; the engines provide isolation in real deployments).
	const writers, perWriter = 4, 48
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ses := s.Session(w)
			for n := 0; n < perWriter; n++ {
				key := int64(w*16 + n%16)
				txn := s.Begin()
				if err := ses.Mutate(txn, tbl, key, func(r tuple.Record) tuple.Record {
					r[2] = tuple.I(r[2].Int + 1)
					return r
				}); err != nil {
					t.Error(err)
					_ = s.Rollback(txn)
					return
				}
				if err := s.Commit(txn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers hammer the replica throughout, tolerating ErrPromoted once
	// failover hits.
	stopRead := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopRead:
					return
				default:
				}
				key := int64(i % keys)
				flow := xct.NewFlow("bal").AddPhase(&xct.Action{
					Table: "accounts", KeyField: "id", Key: key, Mode: xct.Read,
					Run: func(env *xct.Env) error {
						_, err := env.Ses.Read(env.Txn, env.Ses.SM().Cat.Table("accounts"), key)
						return err
					},
				})
				if err := rep.ExecReadOnly(100+r, flow); err != nil && err != ErrPromoted {
					t.Errorf("replica read: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	// Kill the primary and promote while readers are still running.
	sh.Close()
	ns, _, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	close(stopRead)
	rg.Wait()
	// Every acked increment is visible exactly once: K=1 means each
	// Commit that returned was replayed on the replica first.
	ses := ns.Session(0)
	ntbl := ns.Cat.Table("accounts")
	var want [keys]int64
	for w := 0; w < writers; w++ {
		for n := 0; n < perWriter; n++ {
			want[w*16+n%16]++
		}
	}
	for key := int64(0); key < keys; key++ {
		rec, err := ses.Read(ns.Begin(), ntbl, key)
		if err != nil {
			t.Fatalf("key %d: %v", key, err)
		}
		if rec[2].Int != want[key] {
			t.Fatalf("key %d balance = %d, want %d", key, rec[2].Int, want[key])
		}
	}
}
