package dora

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/tuple"
	"dora/internal/xct"
)

// bumpFlow is a statically keyed flow of increments to column col of
// tbl: phase 0 bumps the phase0 rows, phase 1 bumps row phase1. Every key
// is aligned, so phase 1's lock is claimed with phase 0 in one canonical
// batch.
func bumpFlow(tbl *catalog.Table, col int, phase0 []int64, phase1 int64) *xct.Flow {
	inc := func(r tuple.Record) tuple.Record {
		r[col] = tuple.I(r[col].Int + 1)
		return r
	}
	bump := func(k int64) *xct.Action {
		return &xct.Action{
			Table: tbl.Name, KeyField: "id", Key: k, Mode: xct.Write,
			Run: func(env *xct.Env) error {
				return env.Ses.Mutate(env.Txn, tbl, k, inc)
			},
		}
	}
	p0 := make([]*xct.Action, len(phase0))
	for i, k := range phase0 {
		p0[i] = bump(k)
	}
	return xct.NewFlow("bump2").AddPhase(p0...).AddPhase(bump(phase1))
}

// TestTwoPhaseClaimsNoTimeout: rounds of 8 concurrent two-phase flows
// over 16 rows on 4 partitions, each phase-1 key on its flow's first
// key's partition. The whole lock set is claimed up front, so no wait
// can close a cycle; before promotion granted a transaction's parked
// action past a blocked queue head, a phase-1 action could wait behind
// another flow's action that waited for its own transaction, and the
// flows in that cycle failed with ErrLocalTimeout.
func TestTwoPhaseClaimsNoTimeout(t *testing.T) {
	const rows, flows = 16, 8
	rounds := 60
	if raceEnabled {
		rounds = 15
	}
	s, acct, _, e := rig2(t, rows, 4, Config{LocalTimeout: 300 * time.Millisecond, TickEvery: 25 * time.Millisecond})
	rng := rand.New(rand.NewSource(1))
	const part = rows / 4 // keys per partition
	verdicts := make(chan error, flows)
	for r := 0; r < rounds; r++ {
		for i := 0; i < flows; i++ {
			a := 1 + rng.Int63n(rows)
			b := 1 + rng.Int63n(rows-1)
			if b >= a {
				b++
			}
			lo := (a-1)/part*part + 1
			a2 := lo + rng.Int63n(part-1)
			if a2 >= a {
				a2++
			}
			e.ExecAsync(i, bumpFlow(acct, 1, []int64{a, b}, a2), func(err error) { verdicts <- err })
		}
		for i := 0; i < flows; i++ {
			if err := <-verdicts; err != nil {
				t.Fatalf("round %d: %v (timeouts so far %d)", r, err, e.Timeouts.Load())
			}
		}
	}
	if n := e.Timeouts.Load(); n != 0 {
		t.Fatalf("%d local timeouts", n)
	}
	if got, want := sumCol(t, s, acct, rows), int64(rows*100+rounds*flows*3); got != want {
		t.Fatalf("sum of v = %d, want %d", got, want)
	}
}

// TestTwoPhaseRepartitionStorm drives the TPC-B-shaped flow of
// TestExecAsyncTwoPhaseAllocs (three writes, then a claimed phase-1
// write) over a hot key set while the table splits and merges, under
// -race: messages that live in their run's or phase's inline slots are
// parked in lock tables, migrated by splits and forwarded by merges, and
// every flow must still finish exactly once.
func TestTwoPhaseRepartitionStorm(t *testing.T) {
	const n = 100
	s, acct, _, e := rig2(t, n, 2, Config{LocalTimeout: 200 * time.Millisecond, TickEvery: 25 * time.Millisecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var execErr error
	var committed, timedOut int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			hot := func() int64 { return 1 + 4*rng.Int63n(n/4) }
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := e.Exec(c, bumpFlow(acct, 1, []int64{hot(), hot(), hot()}, hot()))
				mu.Lock()
				switch {
				case err == nil:
					committed++
				case errors.Is(err, ErrLocalTimeout):
					timedOut++
				case execErr == nil:
					execErr = err
				}
				mu.Unlock()
				if err != nil && !errors.Is(err, ErrLocalTimeout) {
					return
				}
			}
		}(c)
	}
	storms := 30
	if testing.Short() {
		storms = 8
	}
	for cycle := 0; cycle < storms; cycle++ {
		ranges := e.Router("accounts").Ranges()
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
	t.Logf("committed %d, timed out %d", committed, timedOut)
	if committed == 0 {
		t.Fatal("no flow committed through the storm")
	}
	if got, want := sumCol(t, s, acct, n), n*100+4*committed; got != want {
		t.Fatalf("accounts total = %d, want %d (lost or doubled effects)", got, want)
	}
}
