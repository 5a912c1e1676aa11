package main

import (
	"sync"
	"time"

	"dora/internal/metrics"
	"dora/internal/wal"
)

// counters is a snapshot of every layer's public counters.
type counters struct {
	executed, waited, timeouts                    int64
	lockAcq, rangeLocks, escalations, threadSwits int64
	contShips, konts, asyncResolves, shipRetries  int64
	ownedReads, ownedReadsLatched                 int64
	ownedWrites, ownedWritesLatched               int64
	cs                                            metrics.SnapshotCS
	log                                           wal.Stats
	hits, misses, evictions, dirtyWrites          int64
	snapshotShips, stampedEvictions               int64
	rt                                            rtSample
}

func snapCounters(in *instance) counters {
	var c counters
	for _, p := range in.eng.PartitionStats() {
		c.executed += p.Executed
		c.waited += p.Waited
	}
	c.timeouts = in.eng.Timeouts.Load()
	ls := in.eng.LockSnapshot()
	c.lockAcq, c.rangeLocks, c.escalations, c.threadSwits = ls.Acquisitions, ls.RangeLocks, ls.Escalations, ls.ThreadSwitches
	ss := in.eng.ShipSnapshot()
	c.contShips, c.konts, c.asyncResolves, c.shipRetries = ss.ContShips, ss.KontsRun, ss.AsyncResolves, ss.ShipRetries
	for _, t := range in.s.Cat.Tables() {
		c.ownedReads += t.Heap.OwnedReads.Load()
		c.ownedReadsLatched += t.Heap.OwnedReadsLatched.Load()
		c.ownedWrites += t.Heap.OwnedWrites.Load()
		c.ownedWritesLatched += t.Heap.OwnedWritesLatched.Load()
	}
	if in.s.CS != nil {
		c.cs = in.s.CS.Snapshot()
	}
	c.log = in.s.Log.Stats()
	p := in.s.Pool
	c.hits, c.misses, c.evictions, c.dirtyWrites = p.Hits.Load(), p.Misses.Load(), p.Evictions.Load(), p.DirtyWrites.Load()
	c.snapshotShips, c.stampedEvictions = p.SnapshotShips.Load(), p.StampedEvictions.Load()
	c.rt = readRuntime()
	return c
}

// queueSampler samples every partition's inbox length until stopped.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}

	mu          sync.Mutex
	sum, n, max int64
}

const queueSampleEvery = 2 * time.Millisecond

func startQueueSampler(in *instance) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(queueSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				for _, p := range in.eng.PartitionStats() {
					q.mu.Lock()
					q.sum += int64(p.QueueLen)
					q.n++
					q.max = max(q.max, int64(p.QueueLen))
					q.mu.Unlock()
				}
			}
		}
	}()
	return q
}

// finish stops the sampler, waits for it, and returns the mean and max
// inbox length over all samples of all partitions.
func (q *queueSampler) finish() (mean, maxLen float64) {
	close(q.stop)
	<-q.done
	if q.n == 0 {
		return 0, 0
	}
	return float64(q.sum) / float64(q.n), float64(q.max)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// layerMetrics derives the per-layer metrics from the span file's stages
// and the counter deltas of the traced window, which completed txns
// transactions.
func layerMetrics(st spanStats, a, b counters, txns int64, qMean, qMax float64, inflightMax int64) map[string]float64 {
	per := func(d int64) float64 { return ratio(d, txns) }
	perK := func(d int64) float64 { return 1000 * ratio(d, txns) }
	m := map[string]float64{
		"workload.gen_late_p50_us": usOf(quantile(st.late, 0.50)),
		"workload.gen_late_p99_us": usOf(quantile(st.late, 0.99)),
		"workload.inflight_max":    float64(inflightMax),
		"workload.txn_p50_us":      usOf(quantile(st.latency, 0.50)),
		"workload.txn_p99_us":      usOf(quantile(st.latency, 0.99)),

		"dora.dispatch_us.p50": usOf(quantile(st.dispatch, 0.50)),
		"dora.dispatch_us.p99": usOf(quantile(st.dispatch, 0.99)),
		"dora.action_us.p50":   usOf(quantile(st.action, 0.50)),
		"dora.rvp_us.p50":      usOf(quantile(st.rvp, 0.50)),
		"dora.commit_us.p50":   usOf(quantile(st.commit, 0.50)),
		"dora.commit_us.p99":   usOf(quantile(st.commit, 0.99)),

		"dora.actions_per_txn":        per(b.executed - a.executed),
		"dora.lock_waits_per_txn":     per(b.waited - a.waited),
		"dora.lock_acq_per_txn":       per(b.lockAcq - a.lockAcq),
		"dora.range_locks_per_txn":    per(b.rangeLocks - a.rangeLocks),
		"dora.escalations_per_ktxn":   perK(b.escalations - a.escalations),
		"dora.cont_ships_per_txn":     per(b.contShips - a.contShips),
		"dora.konts_per_txn":          per(b.konts - a.konts),
		"dora.async_resolves_per_txn": per(b.asyncResolves - a.asyncResolves),
		"dora.ship_retries_per_ktxn":  perK(b.shipRetries - a.shipRetries),
		"dora.timeouts":               float64(b.timeouts - a.timeouts),
		"dora.queue_len.mean":         qMean,
		"dora.queue_len.max":          qMax,
		"dora.thread_switches":        float64(b.threadSwits - a.threadSwits),

		"heap.owned_read_share": ratio((b.ownedReads-b.ownedReadsLatched)-(a.ownedReads-a.ownedReadsLatched),
			b.ownedReads-a.ownedReads),
		"heap.owned_write_share": ratio((b.ownedWrites-b.ownedWritesLatched)-(a.ownedWrites-a.ownedWritesLatched),
			b.ownedWrites-a.ownedWrites),
		"cs.latch_per_txn":       per(b.cs.Latch - a.cs.Latch),
		"cs.index_latch_per_txn": per(b.cs.IndexLatch - a.cs.IndexLatch),
		"cs.frame_latch_per_txn": per(b.cs.FrameLatch - a.cs.FrameLatch),
		"cs.log_per_txn":         per(b.cs.Log - a.cs.Log),

		"clog.appends_per_txn":     per(b.log.Appends - a.log.Appends),
		"clog.consolidated_share":  ratio(b.log.Consolidated-a.log.Consolidated, b.log.Appends-a.log.Appends),
		"clog.grouped_share":       ratio(b.log.GroupedCommits-a.log.GroupedCommits, b.log.Forces-a.log.Forces),
		"clog.syncs_per_txn":       per(b.log.Syncs - a.log.Syncs),
		"wal.sync_us.p50":          usOf(quantile(st.syncs, 0.50)),
		"wal.sync_us.p99":          usOf(quantile(st.syncs, 0.99)),
		"wal.bytes_per_sync":       ratio(st.syncBytes, int64(len(st.syncs))),
		"buffer.hit_ratio":         ratio(b.hits-a.hits, (b.hits-a.hits)+(b.misses-a.misses)),
		"buffer.evictions_per_txn": per(b.evictions - a.evictions),

		"buffer.dirty_writes_per_txn":    per(b.dirtyWrites - a.dirtyWrites),
		"buffer.snapshot_ships_per_ktxn": perK(b.snapshotShips - a.snapshotShips),
		"buffer.stamped_evictions":       float64(b.stampedEvictions - a.stampedEvictions),
		"disk.reads_per_txn":             per(int64(st.diskReads)),
		"disk.writes_per_txn":            per(int64(st.diskWrites)),
		"disk.io_us.p50":                 usOf(quantile(st.diskIO, 0.50)),

		"go.gc_cycles_per_ktxn":   perK(int64(b.rt.gcCycles - a.rt.gcCycles)),
		"go.gc_pause_p99_us":      1e6 * histQuantile(a.rt.pauses, b.rt.pauses, 0.99),
		"go.sched_latency_p99_us": 1e6 * histQuantile(a.rt.sched, b.rt.sched, 0.99),
	}
	return m
}

// layerUnits gives each per-layer metric's unit; names not listed are
// ratios or counts per transaction (unit "1").
var layerUnits = map[string]string{
	"workload.gen_late_p50_us": "us", "workload.gen_late_p99_us": "us",
	"workload.inflight_max": "count", "workload.txn_p50_us": "us", "workload.txn_p99_us": "us",
	"dora.dispatch_us.p50": "us", "dora.dispatch_us.p99": "us", "dora.action_us.p50": "us",
	"dora.rvp_us.p50": "us", "dora.commit_us.p50": "us", "dora.commit_us.p99": "us",
	"dora.timeouts": "count", "dora.queue_len.mean": "count", "dora.queue_len.max": "count",
	"dora.thread_switches": "count",
	"wal.sync_us.p50":      "us", "wal.sync_us.p99": "us", "wal.bytes_per_sync": "B",
	"buffer.stamped_evictions": "count", "disk.io_us.p50": "us",
	"go.gc_pause_p99_us": "us", "go.sched_latency_p99_us": "us",
	"sm.recover_ms_per_mb": "ms/MiB", "bench.trace_overhead_pct": "%",
}
