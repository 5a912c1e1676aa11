package dora

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/tuple"
	"dora/internal/workload"
	"dora/internal/xct"
)

// asyncFunc adapts a function to workload.AsyncEngine.
type asyncFunc func(worker int, flow *xct.Flow, done func(error))

func (f asyncFunc) ExecAsync(worker int, flow *xct.Flow, done func(error)) { f(worker, flow, done) }

// TestOpenLoopRepartitionStorm drives open-loop ExecAsync traffic —
// single-key bumps and peeks arriving at a constant rate whether or not
// earlier flows have finished, so inboxes hold queued work — while a
// goroutine splits and merges the table for the whole run, under -race.
// Exactly-once: the value sum equals the initial load plus one per
// committed bump (aborted flows leave nothing behind, and no commit is
// lost or doubled by a repartition), and no suspended action outlives
// the run.
func TestOpenLoopRepartitionStorm(t *testing.T) {
	const n = 200
	s, acct, _, e := rig2(t, n, 2, Config{})

	bump := func(r tuple.Record) tuple.Record {
		r[1] = tuple.I(r[1].Int + 1)
		return r
	}
	mix := workload.Mix{
		{Name: "bump", Weight: 70, Build: func(rng *rand.Rand) *xct.Flow {
			k := 1 + rng.Int63n(n)
			return xct.NewFlow("bump").AddPhase(&xct.Action{
				Table: "accounts", KeyField: "id", Key: k, Mode: xct.Write,
				Run: func(env *xct.Env) error {
					return env.Ses.Mutate(env.Txn, acct, k, bump)
				},
			})
		}},
		{Name: "peek", Weight: 30, Build: func(rng *rand.Rand) *xct.Flow {
			k := 1 + rng.Int63n(n)
			return xct.NewFlow("peek").AddPhase(&xct.Action{
				Table: "accounts", KeyField: "id", Key: k, Mode: xct.Read,
				Run: func(env *xct.Env) error {
					_, err := env.Ses.Read(env.Txn, acct, k)
					return err
				},
			})
		}},
	}

	// Count committed bumps in the done callbacks, and signal every
	// commit to the storm goroutine so it paces itself on traffic.
	var bumps atomic.Int64
	progress := make(chan struct{}, 1)
	eng := asyncFunc(func(worker int, flow *xct.Flow, done func(error)) {
		isBump := flow.Name == "bump"
		e.ExecAsync(worker, flow, func(err error) {
			if err == nil {
				if isBump {
					bumps.Add(1)
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
			done(err)
		})
	})

	// The repartition storm: split a range mid-way and fold it straight
	// back, for the whole run. Each step waits for a commit first, so
	// traffic lands on every topology the storm creates.
	stop := make(chan struct{})
	stormDone := make(chan struct{})
	var cycles atomic.Int64
	committedSince := func() bool {
		select {
		case <-progress:
			return true
		case <-stop:
			return false
		}
	}
	go func() {
		defer close(stormDone)
		for cycle := 0; committedSince(); cycle++ {
			ranges := e.Router("accounts").Ranges()
			r := ranges[cycle%len(ranges)]
			if r.Hi-r.Lo < 2 {
				continue
			}
			nw, err := e.SplitPartition("accounts", r.Part, r.Lo+(r.Hi-r.Lo)/2)
			if err != nil {
				continue // the range moved under us; next cycle
			}
			committedSince()
			if err := e.MergePartition("accounts", nw, r.Part); err != nil {
				t.Errorf("storm merge: %v", err)
				return
			}
			cycles.Add(1)
		}
	}()

	dur := 600 * time.Millisecond
	if testing.Short() {
		dur = 200 * time.Millisecond
	}
	ol := workload.OpenLoop{Engine: eng, Mix: mix, Rate: 20000, MaxInFlight: 512, Duration: dur, Seed: 42}
	res := ol.Run()
	close(stop)
	<-stormDone

	t.Logf("offered=%d dropped=%d committed=%d aborted=%d bumps=%d split/merge cycles=%d",
		res.Offered, res.Dropped, res.Committed, res.Aborted, bumps.Load(), cycles.Load())
	if res.Committed == 0 {
		t.Fatal("no transactions committed through the storm")
	}
	if got, want := sumCol(t, s, acct, n), n*100+bumps.Load(); got != want {
		t.Fatalf("value sum = %d, want %d (init %d + %d committed bumps): aborted flows leaked effects, or commits were lost/doubled",
			got, want, n*100, bumps.Load())
	}
	if ss := e.ShipSnapshot(); ss.SuspendedNow != 0 {
		t.Fatalf("suspended actions leaked: %d", ss.SuspendedNow)
	}
}
