package dora

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/tuple"
	"dora/internal/xct"
)

// auditFlow reads span consecutive accounts keys as one phase of point
// actions: on the hierarchical table the run trips per-transaction
// escalation (threshold 4 in the storm rig), so escalated coarse holds
// are constantly being taken, conflicted with by the hot-key writers,
// and de-escalated while the storm migrates the granules they cover.
// Reads, like tatp's escalation audit — a phase's point actions grant in parallel,
// so overlapping multi-key WRITE runs could deadlock each other, which
// the lock tables (per the paper) do not detect.
func auditFlow(acct *catalog.Table, base, span int64) *xct.Flow {
	acts := make([]*xct.Action, 0, span)
	for i := int64(0); i < span; i++ {
		k := base + i
		acts = append(acts, &xct.Action{
			Table: "accounts", KeyField: "id", Key: k, Mode: xct.Read,
			Label: "audit",
			Run: func(env *xct.Env) error {
				_, err := env.Ses.Read(env.Txn, acct, k)
				return err
			},
		})
	}
	return xct.NewFlow("audit").AddPhase(acts...)
}

// scanFlow reads an accounts interval under one ranged S request — a
// pinned coarse cover that conflicting writers may not de-escalate.
func scanFlow(acct *catalog.Table, lo, hi int64) *xct.Flow {
	return xct.NewFlow("scan").AddPhase(&xct.Action{
		Table: "accounts", KeyField: "id", Key: lo, Mode: xct.Read,
		Ranged: true, RangeLo: lo, RangeHi: hi, Label: "scan",
		Run: func(env *xct.Env) error {
			return env.Ses.ScanRange(env.Txn, acct, lo, hi,
				func(int64, tuple.Record) bool { return true })
		},
	})
}

// TestEscalationRepartitionStorm drives zipfian hot-key writers,
// escalating multi-key audits, and ranged scanners against repeated
// split/merge cycles under -race: escalated and pinned coarse holds
// must survive extraction, split duplication, and adoption with
// exactly-once commit effects, and both escalation counters must move.
func TestEscalationRepartitionStorm(t *testing.T) {
	const (
		n    = 400
		span = 6
	)
	s, acct, ledger, e := rig2(t, n, 2, Config{EscalateAt: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var execErr error
	var xfers int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 11))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				wrote := false
				switch i % 4 {
				case 0: // escalating audit
					err = e.Exec(c, auditFlow(acct, 1+rng.Int63n(n-span), span))
				case 1: // coarse range scan
					lo := 1 + rng.Int63n(n-64)
					err = e.Exec(c, scanFlow(acct, lo, lo+63))
				default: // hot-key writer: 10% of the key space
					err = e.Exec(c, xferFlow2(acct, ledger, 1+rng.Int63n(n/10)))
					wrote = true
				}
				if err != nil {
					mu.Lock()
					if execErr == nil {
						execErr = err
					}
					mu.Unlock()
					return
				}
				if wrote {
					mu.Lock()
					xfers++
					mu.Unlock()
				}
			}
		}(c)
	}
	// The storm: split+merge cycles on accounts while the traffic runs,
	// so coarse holds keep crossing extractAbove/extractAll/adopt.
	storms := 30
	if testing.Short() {
		storms = 8
	}
	for cycle := 0; cycle < storms; cycle++ {
		rt := e.Router("accounts")
		ranges := rt.Ranges()
		r := ranges[cycle%len(ranges)]
		if r.Hi-r.Lo < 2 {
			continue
		}
		nw, err := e.SplitPartition("accounts", r.Part, r.Lo+(r.Hi-r.Lo)/2)
		if err != nil {
			continue // the range moved under us; next cycle
		}
		time.Sleep(time.Millisecond)
		if err := e.MergePartition("accounts", nw, r.Part); err != nil {
			t.Errorf("storm merge: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if execErr != nil {
		t.Fatalf("exec during storm: %v", execErr)
	}
	// Exactly-once: every xfer bumped one accounts row and one ledger
	// row; audits and scans are read-only.
	if got := sumCol(t, s, acct, n); got != n*100+xfers {
		t.Fatalf("accounts total = %d, want %d (lost/double effects under escalation)",
			got, n*100+xfers)
	}
	if got := sumCol(t, s, ledger, n); got != xfers {
		t.Fatalf("ledger total = %d, want %d", got, xfers)
	}
	if ss := e.ShipSnapshot(); ss.SuspendedNow != 0 {
		t.Fatalf("suspended actions leaked: %d", ss.SuspendedNow)
	}
	ls := e.LockSnapshot()
	if ls.Escalations == 0 {
		t.Fatal("storm never escalated — the audit transactions must trip the threshold")
	}
	if ls.Deescalations == 0 {
		t.Fatal("storm never de-escalated")
	}
}
