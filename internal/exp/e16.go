package exp

import (
	"fmt"
	"sync"
	"time"

	"dora/internal/dora"
	"dora/internal/engine"
	"dora/internal/engine/conventional"
	"dora/internal/repl"
	"dora/internal/sm"
	"dora/internal/wal"
	"dora/internal/workload"
	"dora/internal/workload/tatp"
)

// E16Replication measures the replication subsystem end to end: a DORA
// primary ships hardened group-commit extents to an in-process read
// replica that replays them into a live engine and serves the read-only
// TATP slice at its hardened commit horizon.
//
// Three load rows share the shape "writes on the primary, reads
// somewhere": reads on the primary itself (the no-replica baseline),
// reads offloaded to an async replica (bounded staleness, measured as
// the max gap in log bytes between the primary's last commit and the
// replica's replayed horizon during the run), and reads offloaded under
// the semi-sync K=1 commit rule (each commit waits for the replica's
// replay ack, so staleness collapses to ~0 and the write row pays the
// shipping round-trip as a latency tax). The log trimmer runs
// throughout, truncating the primary's WAL under min(checkpoint redo,
// slowest replica ack) — trims > 0 shows retention stayed bounded while
// replicas streamed.
//
// The final row is the failover drill: with K=1 every commit that
// returned un-degraded was acked by the replica, so after stopping the
// load and killing the primary, the promoted replica's commit horizon
// must have caught the primary's last commit exactly — no acked
// transaction lost, no in-flight one surviving (losers are rolled back
// with CLRs during promotion). The promoted engine then serves the full
// read-write mix as the new primary; its throughput is the row.
func E16Replication(c Config) (*Table, error) {
	c = c.fill()
	tb := &Table{
		Title:  "E16  replication: read offload, bounded staleness, semi-sync tax, failover, TATP",
		Header: []string{"config", "write tps", "read tps", "max staleness", "degraded", "trims", "notes"},
		Caption: "write tps = write-heavy TATP mix on the primary (full mix on the promoted\n" +
			"row); read tps = read-only TATP slice, on the primary (baseline) or the\n" +
			"replica (offload rows). max staleness = peak (primary last-commit LSN -\n" +
			"replica replayed horizon) observed, in log bytes; semi-sync K=1 commits\n" +
			"wait for the replica's replay ack, so staleness ~0 and writes pay the\n" +
			"round-trip. trims = WAL truncations under min(checkpoint, replica ack).\n" +
			"promoted = replica promoted after primary death; horizon-caught means no\n" +
			"acked commit was lost and in-flight losers were rolled back. Everything\n" +
			"runs in one process: closed-loop read clients never idle, so the offload\n" +
			"rows shift CPU from the primary's writers to the replica's readers — the\n" +
			"offload win is the read column (and the freed primary lock/latch path),\n" +
			"not the single-machine write column.",
	}

	// Row 1: no replica — read-only clients compete on the primary.
	{
		r, err := e16Rig(c, 0)
		if err != nil {
			return nil, fmt.Errorf("e16 primary-only: %w", err)
		}
		w, rd, _, deg := e16Measure(c, r, r.eng, r.db.ReadOnlyMix(tatp.MixOptions{}))
		tb.Rows = append(tb.Rows, []string{"reads-on-primary (async)", f1(w), f1(rd), "n/a", d2(deg),
			d2(r.trim.Trims.Load()), "replica replays but serves no reads"})
		r.close()
	}

	// Row 2: async replica — reads offloaded at bounded staleness.
	{
		r, err := e16Rig(c, 0)
		if err != nil {
			return nil, fmt.Errorf("e16 async offload: %w", err)
		}
		w, rd, stale, deg := e16Measure(c, r, repl.ReadEngine{R: r.rep}, r.repDB.ReadOnlyMix(tatp.MixOptions{}))
		tb.Rows = append(tb.Rows, []string{"reads-on-replica (async)", f1(w), f1(rd),
			fmt.Sprintf("%dB", stale), d2(deg), d2(r.trim.Trims.Load()), "reads at replica horizon"})
		r.close()
	}

	// Rows 3+4: semi-sync offload, then failover on the same rig (K=1
	// means every un-degraded commit was acked before returning — the
	// precondition the exactly-once check rests on).
	r, err := e16Rig(c, 1)
	if err != nil {
		return nil, fmt.Errorf("e16 semi-sync: %w", err)
	}
	w, rd, stale, deg := e16Measure(c, r, repl.ReadEngine{R: r.rep}, r.repDB.ReadOnlyMix(tatp.MixOptions{}))
	tb.Rows = append(tb.Rows, []string{"reads-on-replica (semi-sync K=1)", f1(w), f1(rd),
		fmt.Sprintf("%dB", stale), d2(deg), d2(r.trim.Trims.Load()), "commits wait for replay ack"})

	// Failover: quiesce, let the replica catch the primary's durable log
	// end, kill the primary, promote, and serve the full mix.
	if err := e16CatchUp(r); err != nil {
		r.close()
		return nil, fmt.Errorf("e16 failover: %w", err)
	}
	lastCommit := r.s.LastCommitLSN()
	r.trim.Stop()
	_ = r.sh.Close()
	_ = r.eng.Close()
	_ = r.s.Close() // primary is dead
	ns, st, err := r.rep.Promote()
	if err != nil {
		_ = r.rep.Close()
		return nil, fmt.Errorf("e16 promote: %w", err)
	}
	caught := "horizon-caught"
	if r.rep.CommitHorizon() < lastCommit {
		caught = fmt.Sprintf("LOST %dB of acked commits", lastCommit-r.rep.CommitHorizon())
	}
	ce := conventional.New(ns)
	res := (&workload.Driver{
		Engine: ce, Mix: r.repDB.NewMix(tatp.MixOptions{}),
		Clients: c.Clients, Duration: c.Duration, Seed: 1616,
	}).Run()
	_ = ce.Close()
	_ = r.rep.Close()
	tb.Rows = append(tb.Rows, []string{"promoted (post-failover)", f1(res.Throughput), "-", "-", "-", "-",
		fmt.Sprintf("%s, losers=%d", caught, st.Losers)})
	return tb, nil
}

// e16RigT bundles one primary+replica pair.
type e16RigT struct {
	s     *sm.SM
	db    *tatp.DB
	eng   *dora.Dora
	sh    *repl.Shipper
	rep   *repl.Replica
	repDB *tatp.DB
	trim  *sm.Trimmer
	close func()
}

// e16Rig opens a logged TATP primary under the DORA engine, attaches a
// shipper with commit rule K, joins one in-process replica, waits for
// its catch-up replay of the initial load, and starts the trimmer.
func e16Rig(c Config, k int) (*e16RigT, error) {
	store := wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: 1 << 14, LogStore: store})
	if err != nil {
		return nil, err
	}
	db, err := tatp.Load(s, c.Subscribers)
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	eng := dora.New(s, dora.Config{PartitionsPerTable: c.Partitions, Domains: db.Domains()})
	sh, err := repl.AttachPrimary(s, store, repl.Rule{K: k})
	if err != nil {
		_ = eng.Close()
		_ = s.Close()
		return nil, err
	}
	var repDB *tatp.DB
	rep, err := repl.NewReplica(repl.Options{Frames: 1 << 14, DDL: func(rs *sm.SM) error {
		var derr error
		repDB, derr = tatp.Schema(rs, c.Subscribers)
		return derr
	}})
	if err == nil {
		err = sh.AddReplica("replica-1", repl.LocalLink{R: rep})
	}
	if err != nil {
		_ = sh.Close()
		_ = eng.Close()
		_ = s.Close()
		return nil, err
	}
	trim := &sm.Trimmer{SM: s, Interval: 10 * time.Millisecond, Threshold: 512 << 10,
		AckHorizon: sh.AckHorizon}
	trim.Start()
	r := &e16RigT{s: s, db: db, eng: eng, sh: sh, rep: rep, repDB: repDB, trim: trim}
	r.close = func() {
		trim.Stop()
		_ = sh.Close()
		_ = rep.Close()
		_ = eng.Close()
		_ = s.Close()
	}
	// The replica replays the whole initial load before measurement
	// starts (otherwise semi-sync commits would stall behind catch-up and
	// the staleness sample would just measure the load's backlog).
	if err := e16CatchUp(r); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// e16CatchUp waits until the replica's replayed commit horizon reaches
// the primary's last commit.
func e16CatchUp(r *e16RigT) error {
	deadline := time.Now().Add(60 * time.Second)
	for r.rep.CommitHorizon() < r.s.LastCommitLSN() {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at horizon %d, primary last commit %d",
				r.rep.CommitHorizon(), r.s.LastCommitLSN())
		}
		// A quiesced abort's CLRs/end can sit in the log buffer with no
		// forcer; flush so every transaction's resolution ships — the
		// replica applies only the transaction-consistent prefix, and one
		// unresolved straggler holds its commit horizon back.
		_ = r.s.Log.FlushAll()
		time.Sleep(time.Millisecond)
	}
	return nil
}

// e16Measure drives the write-heavy mix on the primary and the given
// read-only mix on readEng concurrently for c.Duration, sampling the
// replica's staleness (log bytes behind the primary's last commit)
// throughout. Returns write tps, read tps, max staleness, and the
// degraded-commit delta for the window.
func e16Measure(c Config, r *e16RigT, readEng engine.Engine, readMix workload.Mix) (wtps, rtps float64, maxStale uint64, degraded int64) {
	deg0 := r.sh.Degraded.Load()
	stop := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if p, h := r.s.LastCommitLSN(), r.rep.CommitHorizon(); p > h && p-h > maxStale {
				maxStale = p - h
			}
		}
	}()
	var wres, rres workload.Result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		wres = (&workload.Driver{
			Engine: r.eng, Mix: r.db.WriteMix(tatp.MixOptions{}),
			Clients: c.Clients, Duration: c.Duration, Seed: 1616,
		}).Run()
	}()
	go func() {
		defer wg.Done()
		rres = (&workload.Driver{
			Engine: readEng, Mix: readMix,
			Clients: c.Clients, Duration: c.Duration, Seed: 6161,
		}).Run()
	}()
	wg.Wait()
	close(stop)
	sampleWG.Wait()
	return wres.Throughput, rres.Throughput, maxStale, r.sh.Degraded.Load() - deg0
}
