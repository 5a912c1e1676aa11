// Package balance implements the demo's two load-balancing components
// (paper §2.2 "Load balancing"):
//
//  1. Balancer — "observes the action queues of each worker thread and
//     re-partitions, reducing the load of threads whose input queue is
//     long, while merging partitions of the threads whose action queues
//     are not loaded". It periodically samples per-partition queue
//     lengths and executed-action deltas, splits the range of overloaded
//     micro-engines at the midpoint, and folds idle micro-engines into a
//     neighbour.
//
//  2. AlignmentAdvisor — "observes a rapid increase in the number of
//     non-partition aligned accesses [and] suggests adjusting the
//     partitions based on the fields that are most frequently used".
//     It samples the engine's alignment statistics and emits a
//     Suggestion naming the field to re-partition on; callers apply it
//     with Dora.Repartition.
package balance

import (
	"sync"
	"time"

	"dora/internal/dora"
	"dora/internal/metrics"
)

// Policy tunes the queue balancer.
type Policy struct {
	// Every is the observation period (default 50ms).
	Every time.Duration
	// SplitFactor: a partition splits when its load (executed-delta +
	// queue + parked waiters) exceeds SplitFactor times the mean load of
	// the other partitions (default 2.0).
	SplitFactor float64
	// MergeFactor is retained for configuration compatibility; merging
	// is driven by consecutive idle samples (see observe).
	MergeFactor float64
	// MinQueue is the minimum hot-queue length worth reacting to
	// (default 8): below it, imbalance is noise.
	MinQueue int
	// MaxParts and MinParts bound the partition count per table
	// (defaults 16 and 1).
	MaxParts, MinParts int
}

func (p *Policy) fill() {
	if p.Every <= 0 {
		p.Every = 50 * time.Millisecond
	}
	if p.SplitFactor <= 1 {
		p.SplitFactor = 2.0
	}
	if p.MergeFactor <= 0 {
		p.MergeFactor = 0.25
	}
	if p.MinQueue <= 0 {
		p.MinQueue = 8
	}
	if p.MaxParts <= 0 {
		p.MaxParts = 16
	}
	if p.MinParts <= 0 {
		p.MinParts = 1
	}
}

// Balancer watches a Dora engine and re-partitions tables in real time.
type Balancer struct {
	eng    *dora.Dora
	pol    Policy
	stop   chan struct{}
	wg     sync.WaitGroup
	tables []string

	// maintGate, when set, reports whether a table's physical layout is
	// still converging under the maintenance daemon (see SetMaintGate).
	// Guarded by gateMu: the gate may be installed while the observation
	// loop runs.
	gateMu    sync.Mutex
	maintGate func(table string) bool

	// lastExec tracks per-worker executed counts between samples; idle
	// counts consecutive samples with no work (merge candidates).
	lastExec map[int]int64
	idle     map[int]int

	// Splits and Merges count re-partitioning decisions taken; Deferred
	// counts decisions withheld because maintenance was still converging
	// the table (maintenance-aware balancing).
	Splits   metrics.Counter
	Merges   metrics.Counter
	Deferred metrics.Counter
}

// SetMaintGate installs the maintenance daemon's convergence probe
// (typically maint.Daemon.Converging). While the probe reports true for
// a table, the balancer defers split and merge decisions on it: a
// topology change mid-migration would strand freshly moved pages on the
// wrong owner and make the daemon re-migrate them. Load imbalance only
// delays — the next sample after convergence acts on it.
func (b *Balancer) SetMaintGate(gate func(table string) bool) {
	b.gateMu.Lock()
	b.maintGate = gate
	b.gateMu.Unlock()
}

// gatedBy reports whether the maintenance gate currently defers
// decisions on table.
func (b *Balancer) gatedBy(table string) bool {
	b.gateMu.Lock()
	maint := b.maintGate
	b.gateMu.Unlock()
	return maint != nil && maint(table)
}

// NewBalancer builds (but does not start) a balancer over the named
// tables.
func NewBalancer(eng *dora.Dora, pol Policy, tables ...string) *Balancer {
	pol.fill()
	return &Balancer{
		eng: eng, pol: pol, stop: make(chan struct{}), tables: tables,
		lastExec: make(map[int]int64), idle: make(map[int]int),
	}
}

// Start launches the observation loop.
func (b *Balancer) Start() {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		t := time.NewTicker(b.pol.Every)
		defer t.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-t.C:
				for _, tbl := range b.tables {
					b.observe(tbl)
				}
			}
		}
	}()
}

// Stop halts the loop.
func (b *Balancer) Stop() {
	close(b.stop)
	b.wg.Wait()
}

// observe samples one table and takes at most one action (split or
// merge) — gradual adaptation, as the demo slider shows.
func (b *Balancer) observe(table string) {
	stats := statsFor(b.eng, table)
	if len(stats) == 0 {
		return
	}
	// Maintenance-aware: never re-partition a table mid-migration. The
	// sampling state below still updates, so the load picture stays
	// fresh for the first post-convergence sample.
	gated := b.gatedBy(table)
	live := len(stats)
	// Load per partition: work done since the last sample (the worker's
	// share of execution) plus standing queue and parked waiters. Pure
	// queue length misses saturation when closed-loop clients keep
	// queues short while one worker does nearly all the work.
	totalQ := 0
	loads := make(map[int]int, live)
	var hot, cold *dora.PartitionStat
	for i := range stats {
		st := &stats[i]
		delta := st.Executed - b.lastExec[st.Worker]
		b.lastExec[st.Worker] = st.Executed
		l := int(delta) + st.QueueLen + int(st.Waiting)
		loads[st.Worker] = l
		totalQ += l
		if hot == nil || l > loads[hot.Worker] {
			hot = st
		}
		// Idleness: several consecutive samples with no work at all.
		if l == 0 {
			b.idle[st.Worker]++
		} else {
			b.idle[st.Worker] = 0
		}
		if b.idle[st.Worker] >= 3 && (cold == nil || b.idle[st.Worker] > b.idle[cold.Worker]) {
			cold = st
		}
	}
	load := func(st *dora.PartitionStat) int { return loads[st.Worker] }

	// Split: "reducing the load of threads whose input queue is long" —
	// the hottest queue is long in absolute terms and holds more than
	// SplitFactor times its fair share (with one partition, any long
	// queue splits).
	if live < b.pol.MaxParts && load(hot) >= b.pol.MinQueue && hot.Width >= 2 {
		// Compare the hot partition against the mean of the others: it
		// splits when it carries more than SplitFactor times their
		// average load (with one partition, any load splits).
		othersMean := 0.0
		if live > 1 {
			othersMean = float64(totalQ-load(hot)) / float64(live-1)
		}
		if live == 1 || float64(load(hot)) > b.pol.SplitFactor*(othersMean+1) {
			if gated {
				b.Deferred.Inc()
				return
			}
			if mid, ok := b.midpointOf(table, hot.Worker); ok {
				if _, err := b.eng.SplitPartition(table, hot.Worker, mid); err == nil {
					b.Splits.Inc()
					delete(b.idle, hot.Worker)
					return
				}
			}
		}
	}
	// Merge: "merging partitions of the threads whose action queues are
	// not loaded" — a partition idle for several samples folds into the
	// least-loaded survivor, while others still have work.
	if cold != nil && live > b.pol.MinParts && totalQ > 0 {
		if gated {
			b.Deferred.Inc()
			return
		}
		into, bestQ := -1, 1<<30
		for i := range stats {
			st := &stats[i]
			if st.Worker != cold.Worker && load(st) < bestQ {
				into, bestQ = st.Worker, load(st)
			}
		}
		if into >= 0 {
			if err := b.eng.MergePartition(table, cold.Worker, into); err == nil {
				b.Merges.Inc()
				delete(b.idle, cold.Worker)
				delete(b.lastExec, cold.Worker)
			}
		}
	}
}

// midpointOf picks the midpoint of the widest range owned by worker.
func (b *Balancer) midpointOf(table string, worker int) (int64, bool) {
	rt := b.eng.Router(table)
	if rt == nil {
		return 0, false
	}
	var lo, hi int64
	found := false
	for _, r := range rt.Ranges() {
		if r.Part == worker && (!found || r.Hi-r.Lo > hi-lo) {
			lo, hi, found = r.Lo, r.Hi, true
		}
	}
	if !found || hi <= lo {
		return 0, false
	}
	return lo + (hi-lo+1)/2, true
}

func statsFor(eng *dora.Dora, table string) []dora.PartitionStat {
	all := eng.PartitionStats()
	out := all[:0]
	for _, st := range all {
		if st.Table == table {
			out = append(out, st)
		}
	}
	return out
}

// Suggestion is the alignment advisor's output: re-partition Table on
// Field (the demo's "suggests to re-organize the partitioning scheme
// according to the new access field").
type Suggestion struct {
	Table string
	Field string
	// UnalignedShare is the fraction of dispatches that were unaligned.
	UnalignedShare float64
}

// AlignmentAdvisor watches the engine's aligned/unaligned dispatch
// counters and suggests partitioning-field changes.
type AlignmentAdvisor struct {
	eng *dora.Dora
	// Threshold is the unaligned share that triggers a suggestion
	// (default 0.5).
	Threshold float64
	// MinSamples is the minimum dispatch count per table before judging
	// (default 100).
	MinSamples int64
}

// NewAlignmentAdvisor builds an advisor with default thresholds.
func NewAlignmentAdvisor(eng *dora.Dora) *AlignmentAdvisor {
	return &AlignmentAdvisor{eng: eng, Threshold: 0.5, MinSamples: 100}
}

// CheckEngine samples (and resets) the engine's alignment counters and
// returns suggestions. tableName resolves catalog table ids to names.
func (a *AlignmentAdvisor) CheckEngine(tableName func(uint32) string) []Suggestion {
	aligned, unaligned := a.eng.AlignmentStats(true)
	var out []Suggestion
	for tblID, fields := range unaligned {
		var un int64
		hotField, hotCount := "", int64(0)
		for f, c := range fields {
			un += c
			if c > hotCount {
				hotField, hotCount = f, c
			}
		}
		total := un + aligned[tblID]
		if total < a.MinSamples || hotField == "" {
			continue
		}
		share := float64(un) / float64(total)
		if share >= a.Threshold {
			out = append(out, Suggestion{
				Table:          tableName(tblID),
				Field:          hotField,
				UnalignedShare: share,
			})
		}
	}
	return out
}
