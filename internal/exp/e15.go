package exp

import (
	"fmt"

	"dora/internal/buffer"
	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/maint"
	"dora/internal/workload"
	"dora/internal/workload/tatp"
)

// E15PageCleaning measures the latch-free owner write path: with owner
// mutations of stamped heap pages skipping the exclusive frame latch and
// page cleaning moved to the owner-coordinated copy-on-write protocol
// (the buffer pool's flush daemon ships snapshot requests to owning
// workers instead of latching their frames), the frame-latch
// acquisitions per aligned WRITE fall to ~0 once the maintenance daemon
// has converged the stamps — with the flush daemon running and hardening
// pages the whole time.
//
// The metric is the fraction of owner-thread heap mutations that still
// took the exclusive frame latch: ~1 right after load (nothing is
// stamped), ~0 once stamps converge under the copy-on-write protocol. "snap
// ships" counts the cleaner's snapshot requests executed on owner
// threads — the proof that cleaning kept running while writes went
// latch-free. The final row drives the same write-heavy mix through the
// open-loop (arrival-rate) driver at ~2x the measured closed-loop
// capacity: past the knee, latency reflects queueing and the drop
// accounting measures the excess — the overload view a closed loop
// structurally cannot show. The conventional engine has no ownership;
// its row is the comparison baseline.
func E15PageCleaning(c Config) (*Table, error) {
	c = c.fill()
	tb := &Table{
		Title: "E15  page cleaning: frame latches on aligned writes under a write-heavy mix, TATP",
		Header: []string{"engine", "phase", "latched/owned write", "owned writes",
			"snap ships", "cleaned", "tps", "p99 ms", "dropped"},
		Caption: "latched/owned write = owner-thread heap mutations that took the exclusive\n" +
			"frame latch (the class copy-on-write page cleaning retires; n/a without\n" +
			"ownership). snap ships = cleaner snapshot requests run on owner threads.\n" +
			"open-loop = Poisson arrivals at ~2x capacity with a bounded in-flight\n" +
			"cap: drops + p99 show overload instead of saturation.",
	}

	// Conventional baseline: no ownership, no stamps, no owned writes.
	{
		db, e, _, closeRig, err := tatpRig(c, "conventional")
		if err != nil {
			return nil, fmt.Errorf("e15 conventional: %w", err)
		}
		_, tps := measureWrites(c, db, e)
		if total := ownedWriteTotal(db); total != 0 {
			closeRig()
			return nil, fmt.Errorf("e15: conventional engine performed %d owned writes, want 0", total)
		}
		tb.Rows = append(tb.Rows, []string{"conventional", "steady", "n/a", "-", "-", "-", f1(tps), "-", "-"})
		closeRig()
	}

	// Copy-on-write protocol: fresh (unstamped) -> converged -> open-loop
	// overload, cleaner running throughout.
	db, e, _, closeRig, err := tatpRig(c, "dora")
	if err != nil {
		return nil, fmt.Errorf("e15 dora: %w", err)
	}
	defer closeRig()
	eng := e.(*dora.Dora)
	d := maint.New(db.SM, eng, maint.Config{})
	defer d.Close()
	cl := buffer.NewCleaner(db.SM.Pool, buffer.CleanerConfig{})
	cl.Start()
	defer cl.Close()

	pool := db.SM.Pool
	var prevShips, prevCleaned int64
	row := func(phase string, ratio, tps float64, extra ...string) {
		ships, cleaned := pool.SnapshotShips.Load(), cl.CleanedPages.Load()
		cells := []string{"dora/cow", phase, f3(ratio), d2(ownedWriteTotal(db)),
			d2(ships - prevShips), d2(cleaned - prevCleaned), f1(tps)}
		prevShips, prevCleaned = ships, cleaned
		if len(extra) == 0 {
			extra = []string{"-", "-"}
		}
		tb.Rows = append(tb.Rows, append(cells, extra...))
	}

	ratio, tps := measureWrites(c, db, e)
	row("fresh load", ratio, tps) // nothing stamped: every owner write latches
	d.Drain()
	ratio, tps = measureWrites(c, db, e)
	row("converged", ratio, tps) // stamps converged: latch-free writes

	// Open-loop overload: Poisson arrivals at ~2x the closed-loop
	// capacity just measured, bounded in-flight.
	rate := c.ArrivalRate
	if rate <= 0 {
		rate = 2 * tps
		if rate < 100 {
			rate = 100
		}
	}
	inflight := c.MaxInFlight
	if inflight <= 0 {
		inflight = 256
	}
	resetOwnedWrites(db)
	ol := workload.OpenLoop{
		Engine: eng, Mix: db.WriteMix(tatp.MixOptions{}),
		Rate: rate, MaxInFlight: inflight, Duration: c.Duration, Seed: 1515,
	}
	ores := ol.Run()
	row("open-loop", ownedWriteRatio(db), ores.Throughput,
		fmt.Sprintf("%.1f", float64(ores.P99US)/1000), d2(ores.Dropped))
	return tb, nil
}

// measureWrites resets the owned-write counters, runs the write-heavy
// TATP mix closed-loop, and reports latched/total plus throughput.
func measureWrites(c Config, db *tatp.DB, e engine.Engine) (float64, float64) {
	resetOwnedWrites(db)
	dr := workload.Driver{
		Engine: e, Mix: db.WriteMix(tatp.MixOptions{}),
		Clients: c.Clients, Duration: c.Duration, Seed: 1515,
	}
	res := dr.Run()
	return ownedWriteRatio(db), res.Throughput
}

func resetOwnedWrites(db *tatp.DB) {
	for _, tbl := range tatpTables(db) {
		tbl.Heap.OwnedWrites.Reset()
		tbl.Heap.OwnedWritesLatched.Reset()
	}
}

func ownedWriteRatio(db *tatp.DB) float64 {
	var total, latched int64
	for _, tbl := range tatpTables(db) {
		total += tbl.Heap.OwnedWrites.Load()
		latched += tbl.Heap.OwnedWritesLatched.Load()
	}
	if total == 0 {
		return 0
	}
	return float64(latched) / float64(total)
}

func ownedWriteTotal(db *tatp.DB) int64 {
	var total int64
	for _, tbl := range tatpTables(db) {
		total += tbl.Heap.OwnedWrites.Load()
	}
	return total
}
