package tpcb

import (
	"math/rand"
	"testing"

	"dora/internal/dora"
)

// TestAccountUpdateAllocs: building the TPC-B transaction is one heap
// object — the flow, its parameters, its actions, its phase slices and
// its history row live in one struct, and the bodies capture nothing.
func TestAccountUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	db := &DB{Branches: 4, AccountsPerBranch: 100}
	if n := testing.AllocsPerRun(200, func() { db.AccountUpdate(2, 3, 7, 500, 1) }); n != 1 {
		t.Fatalf("AccountUpdate: %.1f allocs, want 1", n)
	}
}

// accountUpdateExecAllocs is the allocation ceiling of building and
// running one AccountUpdate through ExecAsync on a warmed one-partition
// DORA engine, from the build to the client's verdict (every goroutine
// counts). It measured 21 while the builder allocated the flow, four
// actions and their closures, two phase slices, three Mutate closures and
// the history record. What is left: the flow, the run, the phase-1
// rendezvous point, the before images of the three updated rows (loaded
// on the shared path, so their pages are unstamped and the heap copies
// them under the latch) and the log's completion goroutine.
const accountUpdateExecAllocs = 7

func TestAccountUpdateExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	db := loadDB(t)
	e := dora.New(db.SM, dora.Config{PartitionsPerTable: 1, Domains: db.Domains()})
	defer e.Close()
	verdict := make(chan error, 1)
	done := func(err error) { verdict <- err }
	hseq := int64(0)
	run := func() {
		hseq++
		e.ExecAsync(0, db.AccountUpdate(2, 3, 7, 1, hseq), done)
		if err := <-verdict; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		run() // warm the lock tables, the inboxes, the commit path and the history pages
	}
	n := testing.AllocsPerRun(500, run)
	t.Logf("%.1f allocs/txn", n)
	if n > accountUpdateExecAllocs {
		t.Fatalf("AccountUpdate ExecAsync: %.1f allocs/txn, ceiling %d", n, accountUpdateExecAllocs)
	}
}

// BenchmarkFlowBuild reports the builder's cost per TPC-B transaction
// (the TATP mix has its own in package tatp).
func BenchmarkFlowBuild(b *testing.B) {
	db := &DB{Branches: 4, AccountsPerBranch: 100}
	mix := db.NewMix(nil)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mix[0].Build(rng)
	}
}
