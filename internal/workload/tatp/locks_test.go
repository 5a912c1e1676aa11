package tatp

import (
	"math/rand"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/engine/conventional"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/workload"
	"dora/internal/xct"
)

// TestIndexLatchesPerTxn: on the TATP mix the conventional engine crabs
// the shared latched B+trees (at least one index latch per committed
// transaction), while DORA's per-partition subtree ownership puts its
// index latching at least 5x lower. The conventional engine has no
// owner threads, so none of its heap accesses count as owned. Each
// engine runs over its own fresh load, and the counts exclude the load
// and DORA's subtree claims.
func TestIndexLatchesPerTxn(t *testing.T) {
	perTxn := map[string]float64{}
	for _, which := range []string{"conventional", "dora"} {
		cs := &metrics.CriticalSectionStats{}
		s, err := sm.Open(sm.Options{Frames: 1 << 12, CS: cs})
		if err != nil {
			t.Fatal(err)
		}
		db, err := Load(s, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var e engine.Engine = conventional.New(s)
		if which == "dora" {
			e = dora.New(s, dora.Config{PartitionsPerTable: 2, Domains: db.Domains()})
		}
		cs.Reset()
		res := (&workload.Driver{
			Engine: e, Mix: db.NewMix(MixOptions{}),
			Clients: 4, Duration: 200 * time.Millisecond, Seed: 1212,
		}).Run()
		if res.Committed == 0 {
			t.Fatalf("%s committed nothing", which)
		}
		perTxn[which] = float64(cs.Snapshot().IndexLatch) / float64(res.Committed)
		if which == "conventional" {
			for _, tbl := range []*catalog.Table{db.Subscriber, db.AccessInfo, db.SpecialFac, db.CallForward} {
				if r, w := tbl.Heap.OwnedReads.Load(), tbl.Heap.OwnedWrites.Load(); r != 0 || w != 0 {
					t.Fatalf("conventional engine: %s counted %d owned reads and %d owned writes, want 0", tbl.Name, r, w)
				}
			}
		}
		_ = e.Close()
		_ = s.Close()
	}
	conv, plp := perTxn["conventional"], perTxn["dora"]
	if conv < 1 {
		t.Fatalf("conventional index latch/txn = %.2f, expected latched crabbing (>= 1)", conv)
	}
	if plp*5 > conv {
		t.Fatalf("index latch/txn: conventional=%.2f dora=%.2f, want dora >= 5x below", conv, plp)
	}
	t.Logf("index latch/txn: conventional %.2f, dora %.2f", conv, plp)
}

// loadDora loads n subscribers and starts DORA over them with cfg.
func loadDora(t *testing.T, n int64, cfg dora.Config) (*DB, *dora.Dora) {
	t.Helper()
	db := loadDB(t, n)
	cfg.PartitionsPerTable = 2
	cfg.Domains = db.Domains()
	e := dora.New(db.SM, cfg)
	t.Cleanup(func() { _ = e.Close(); _ = db.SM.Close() })
	return db, e
}

// TestBatchScanLockAcquisitions: a 64-id BatchScanSubscribers flow
// locks its interval with one ranged request, which the hierarchical
// lock table grants as a root intent plus a few granule locks — at most
// 8 acquisitions per scan, where a per-key table would take 64.
func TestBatchScanLockAcquisitions(t *testing.T) {
	const width, scans = 64, 60
	db, e := loadDora(t, 2000, dora.Config{})
	rng := rand.New(rand.NewSource(1919))
	before := e.LockSnapshot()
	for i := 0; i < scans; i++ {
		lo := 1 + rng.Int63n(db.N-width)
		if err := e.Exec(0, db.BatchScanSubscribers(lo, lo+width-1)); err != nil {
			t.Fatalf("batch scan: %v", err)
		}
	}
	after := e.LockSnapshot()
	acq := float64(after.Acquisitions-before.Acquisitions) / scans
	if acq > 8 {
		t.Fatalf("lock acquisitions per %d-id scan = %.1f, want <= 8", width, acq)
	}
	if after.RangeLocks == before.RangeLocks {
		t.Fatal("scans took no coarse range locks")
	}
}

// auditFlow reads span consecutive subscribers as one single-phase
// transaction, so its point locks pile up under (usually) one granule.
func auditFlow(db *DB, base, span int64) *xct.Flow {
	acts := make([]*xct.Action, 0, span)
	for sid := base; sid < base+span; sid++ {
		key := sid
		acts = append(acts, &xct.Action{
			Table: "subscriber", KeyField: "s_id", Key: key, Mode: xct.Read,
			Run: func(env *xct.Env) error {
				_, err := env.Ses.Read(env.Txn, db.Subscriber, key)
				return err
			},
		})
	}
	return xct.NewFlow("Audit").AddPhase(acts...)
}

// TestEscalationThreshold: 20-key audit transactions pass the default
// escalation threshold (16 key locks under one granule), so their point
// locks fold into a granule lock that is released again at the end;
// EscalateAt -1 turns escalation off.
func TestEscalationThreshold(t *testing.T) {
	const span, audits = 20, 50
	for _, c := range []struct {
		name     string
		at       int
		escalate bool
	}{{"default", 0, true}, {"disabled", -1, false}} {
		db, e := loadDora(t, 2000, dora.Config{EscalateAt: c.at})
		rng := rand.New(rand.NewSource(1901))
		before := e.LockSnapshot()
		for i := 0; i < audits; i++ {
			if err := e.Exec(0, auditFlow(db, 1+rng.Int63n(db.N-span), span)); err != nil {
				t.Fatalf("%s: audit: %v", c.name, err)
			}
		}
		after := e.LockSnapshot()
		esc, deesc := after.Escalations-before.Escalations, after.Deescalations-before.Deescalations
		if c.escalate && (esc == 0 || deesc == 0) {
			t.Fatalf("%s: escalations %d, de-escalations %d; want both > 0", c.name, esc, deesc)
		}
		if !c.escalate && esc != 0 {
			t.Fatalf("%s: %d escalations with escalation off", c.name, esc)
		}
	}
}
