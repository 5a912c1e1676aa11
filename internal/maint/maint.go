// Package maint implements background physical maintenance: the daemon
// that keeps DORA's partitioned physical layout converged with the
// current routing topology, running under the load balancer the way the
// paper's system keeps its data-oriented layout healthy continuously.
//
// The layout decays in two ways. Records inserted before a split or
// merge stay on heap pages that no longer belong (exclusively) to their
// owner's stripe, so aligned reads over old data keep taking
// buffer-frame latches; and repeated split/merge cycles accumulate
// adjacent same-owner B+tree subtrees plus lazy-deletion ghosts, growing
// root fan-out and space without bound. The daemon discovers decay from
// rebalance events (hooks on split/merge/repartition) and from shape
// statistics, and repairs it with two paced operations, both executed ON
// the owning worker's thread through the engine's inbox path so they
// compose with ownership tokens and never race foreground actions:
//
//   - heap-page migration / re-stamping (storage.Heap.TryStamp,
//     sm.Session.MigrateRecord): pages whose live records all route to
//     one worker are re-stamped to it in place; records sharing a page
//     with foreign ones are moved into the owner's pages under a logged
//     maintenance transaction. Either way the owner's aligned reads stop
//     taking frame latches.
//   - subtree compaction (btree.PartitionedTree.CompactOwned): adjacent
//     same-owner subtrees merge and sparse ones are rebuilt, bounding
//     root fan-out by the number of same-owner runs (≈ the partition
//     count) and purging ghosts.
//
// Pacing: one unit of bounded work per tick, skipped (and retried later)
// when the target worker's inbox is deeper than the backpressure
// threshold — foreground latency always wins.
package maint

import (
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/btree"
	"dora/internal/catalog"
	"dora/internal/dora"
	"dora/internal/metrics"
	"dora/internal/page"
	"dora/internal/sm"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/tx"
)

// Config tunes the daemon.
type Config struct {
	// Interval is the pacing tick between maintenance units (default
	// 5ms).
	Interval time.Duration
	// RecordBudget bounds records migrated per unit (default 128).
	RecordBudget int
	// MaxQueueDepth defers a unit when the owning worker's inbox is
	// deeper than this (default 32).
	MaxQueueDepth int
	// FanoutFactor triggers compaction for an index whose root fan-out
	// exceeds FanoutFactor × live partitions (default 2).
	FanoutFactor float64
	// MinUtil rebuilds a subtree whose leaf occupancy is below this
	// fraction of the bulk-load fill (default 0.5).
	MinUtil float64
	// SweepEvery interleaves one full-table background sweep unit every
	// N ticks even without rebalance events (default 8), catching decay
	// the hooks cannot see (load-phase pages are unstamped from birth).
	SweepEvery int
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Millisecond
	}
	if c.RecordBudget <= 0 {
		c.RecordBudget = 128
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 32
	}
	if c.FanoutFactor <= 0 {
		c.FanoutFactor = 2
	}
	if c.MinUtil <= 0 || c.MinUtil > 1 {
		c.MinUtil = 0.5
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 8
	}
}

// unit is one schedulable piece of maintenance: converge the routing
// range starting at lo of one table (heap migration + stamping), or
// compact a table's indexes.
type unit struct {
	table string
	lo    int64
	kind  unitKind
}

type unitKind uint8

const (
	unitHeap unitKind = iota
	unitCompact
)

// Daemon is the maintenance daemon. Create with New, start with Start,
// stop with Close (before closing the engine).
type Daemon struct {
	sm  *sm.SM
	eng *dora.Dora
	cfg Config

	mu    sync.Mutex
	queue []unit // units of the table currently being converged
	// dirty marks tables with pending maintenance (rebalance hooks and
	// background sweeps). A set, not a queue: a storm of rebalance
	// events on one table costs one convergence pass, not one per event.
	dirty  map[string]bool
	dirtyQ []string // dirty tables in first-marked order
	// active counts units currently executing per table, so Converging
	// covers the window between dequeue and completion.
	active  map[string]int
	started bool
	stop    chan struct{}
	wg      sync.WaitGroup

	// Progress counters (monitor, experiments).
	PagesStamped    metrics.Counter
	RecordsMigrated metrics.Counter
	RecordsSkipped  metrics.Counter // busy keys deferred to a later pass
	RangesCleared   metrics.Counter // units whose ranges were lock-free in one probe each
	SubtreesMerged  metrics.Counter
	SubtreesRebuilt metrics.Counter
	GhostsPurged    metrics.Counter
	UnitsDeferred   metrics.Counter // backpressure skips
	UnitsRun        metrics.Counter
}

// New wires a daemon to the engine (installing the rebalance hook) but
// does not start its pacing loop; tests and experiments may instead
// drive it synchronously with Drain.
func New(s *sm.SM, e *dora.Dora, cfg Config) *Daemon {
	cfg.fill()
	d := &Daemon{
		sm: s, eng: e, cfg: cfg,
		dirty:  make(map[string]bool),
		active: make(map[string]int),
		stop:   make(chan struct{}),
	}
	e.SetRebalanceHook(func(ev dora.RebalanceEvent) {
		d.markDirty(ev.Table)
	})
	return d
}

// markDirty flags a table for a convergence pass (rebalance hook,
// background sweep). Idempotent while the table is already pending.
func (d *Daemon) markDirty(table string) {
	d.mu.Lock()
	if !d.dirty[table] {
		d.dirty[table] = true
		d.dirtyQ = append(d.dirtyQ, table)
	}
	d.mu.Unlock()
}

// Converging reports whether the table currently has maintenance work
// pending or in progress — it is marked dirty, convergence units for it
// are still queued, or a unit is executing right now. The load balancer
// consults this before splitting or merging the table's partitions:
// re-partitioning mid-migration would strand freshly moved pages on the
// wrong owner and force the daemon to re-migrate them. (A paced unit
// that did work re-marks its table, so the gate stays closed until a
// full pass finds the fixed point.)
func (d *Daemon) Converging(table string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dirty[table] || d.active[table] > 0 {
		return true
	}
	for _, u := range d.queue {
		if u.table == table {
			return true
		}
	}
	return false
}

// expandLocked turns the oldest dirty table into one unit per current
// routing range plus a compaction unit. Called with d.mu held when the
// unit queue is empty.
func (d *Daemon) expandLocked() {
	for len(d.dirtyQ) > 0 {
		table := d.dirtyQ[0]
		d.dirtyQ = d.dirtyQ[1:]
		delete(d.dirty, table)
		rt := d.eng.Router(table)
		if rt == nil {
			continue
		}
		ranges := rt.Ranges()
		if len(ranges) == 0 {
			continue
		}
		for _, r := range ranges {
			d.queue = append(d.queue, unit{table: table, lo: r.Lo, kind: unitHeap})
		}
		d.queue = append(d.queue, unit{table: table, lo: ranges[0].Lo, kind: unitCompact})
		return
	}
}

// Start launches the pacing loop.
func (d *Daemon) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	d.wg.Add(1)
	go d.loop()
}

// Close stops the pacing loop. Call before closing the engine.
func (d *Daemon) Close() error {
	d.mu.Lock()
	started := d.started
	d.started = false
	d.mu.Unlock()
	if started {
		close(d.stop)
		d.wg.Wait()
	}
	return nil
}

func (d *Daemon) loop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	sweepTick := 0
	sweepTable := 0
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			u, ok := d.next()
			if !ok {
				sweepTick++
				if sweepTick >= d.cfg.SweepEvery {
					sweepTick = 0
					tables := d.sm.Cat.Tables()
					if len(tables) > 0 {
						d.markDirty(tables[sweepTable%len(tables)].Name)
						sweepTable++
					}
				}
				continue
			}
			d.runUnit(u)
		}
	}
}

func (d *Daemon) next() (unit, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.queue) == 0 {
		d.expandLocked()
	}
	if len(d.queue) == 0 {
		return unit{}, false
	}
	u := d.queue[0]
	d.queue = d.queue[1:]
	return u, true
}

// runUnit executes one unit with backpressure: if the owning worker's
// inbox is deep, the unit is re-queued for a later tick. It reports
// whether the unit did any work (Drain's convergence signal). While it
// executes, the table counts as converging; a unit that did work
// re-marks its table so the paced loop keeps going until a pass finds
// no work — between those points the balancer's gate never sees a
// false "converged".
func (d *Daemon) runUnit(u unit) bool {
	if !d.eng.AccessPathClaimed(u.table) {
		return false // shared path: no owner threads to maintain for
	}
	if depth := d.eng.OwnerQueueLen(u.table, u.lo); depth > d.cfg.MaxQueueDepth {
		d.UnitsDeferred.Inc()
		d.mu.Lock()
		d.queue = append(d.queue, u)
		d.mu.Unlock()
		return false
	}
	d.mu.Lock()
	d.active[u.table]++
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		if d.active[u.table]--; d.active[u.table] <= 0 {
			delete(d.active, u.table)
		}
		d.mu.Unlock()
	}()
	d.UnitsRun.Inc()
	worked := false
	switch u.kind {
	case unitHeap:
		d.eng.ExecOnOwner(u.table, u.lo, func(ctx *dora.OwnerCtx) {
			worked = d.heapUnit(ctx)
		})
	case unitCompact:
		worked = d.compactTable(u.table)
	}
	if worked {
		d.markDirty(u.table)
	}
	return worked
}

// heapUnit runs on the owning worker's thread: it scans the worker's
// claimed primary-key intervals for records living on pages not stamped
// to it, re-stamps pages that turn out to be wholly the worker's, and
// migrates (budgeted) records off mixed pages.
func (d *Daemon) heapUnit(ctx *dora.OwnerCtx) bool {
	tbl := ctx.Table()
	ses := ctx.Ses()
	tok := ses.Owner()
	pk := tbl.Primary
	rr := tbl.RouteFor(pk, tbl.PartitionField())
	if tok == nil || pk.Partitioned() == nil || rr == nil {
		return false
	}
	ranges := ctx.Ranges()
	if len(ranges) == 0 {
		return false
	}
	pfIdx := tbl.FieldIndex(tbl.PartitionField())
	if pfIdx < 0 {
		return false
	}
	// mineVal: does a routing value belong to this worker right now?
	mineVal := func(v int64) bool {
		for _, r := range ranges {
			if r.Lo <= v && v <= r.Hi {
				return true
			}
		}
		return false
	}
	// Collect candidate keys on foreign/unstamped pages, grouped by page.
	byPage := make(map[page.ID][]int64)
	var order []page.ID
	total := 0
	for _, r := range ranges {
		if total >= d.cfg.RecordBudget {
			break
		}
		keyLo, keyHi := rr(r.Lo, r.Hi)
		pk.Tree.AscendRangeAs(tok, keyLo, keyHi, func(key int64, val uint64) bool {
			pid := storage.UnpackRID(val).Page
			if tbl.Heap.StampOwner(pid) == tok {
				return true
			}
			if _, seen := byPage[pid]; !seen {
				order = append(order, pid)
			}
			byPage[pid] = append(byPage[pid], key)
			total++
			return total < d.cfg.RecordBudget
		})
	}
	if total == 0 {
		return false
	}
	// One-intent gate: the whole unit runs on the owner's thread, so
	// lock state cannot appear underneath it. One RangeBusy probe per
	// assigned range (O(granules-with-state)) clears every per-record
	// KeyBusy probe below; when some range reports busy, migration falls
	// back to key-by-key gating.
	quiet := true
	for _, r := range ranges {
		if ctx.RangeBusy(r.Lo, r.Hi) {
			quiet = false
			break
		}
	}
	if quiet {
		d.RangesCleared.Inc()
	}
	worked := false
	txn := d.sm.Begin()
	for _, pid := range order {
		// Fast path: the whole page already belongs to this worker —
		// stamp it in place, no data movement.
		ok, err := tbl.Heap.TryStamp(pid, tok, func(img []byte) bool {
			rec, derr := tuple.Decode(img)
			return derr == nil && mineVal(rec[pfIdx].Int)
		})
		if err == nil && ok {
			d.PagesStamped.Inc()
			worked = true
			continue
		}
		// Mixed page: migrate our records off it (skipping busy keys —
		// in-flight transactions hold undo entries naming current RIDs).
		for _, key := range byPage[pid] {
			rec, rerr := readForMigration(tbl, tok, key)
			if rerr != nil || rec == nil {
				continue
			}
			if !quiet && ctx.KeyBusy(rec[pfIdx].Int) {
				d.RecordsSkipped.Inc()
				continue
			}
			moved, merr := ses.MigrateRecord(txn, tbl, key)
			if merr != nil {
				// Roll the maintenance transaction back (restoring any
				// half-moved record) and stop this unit. RollbackAs with
				// our token: the compensation runs inline on this (the
				// owning) thread — plain Rollback would ship to our own
				// inbox and wait on ourselves.
				_ = d.sm.RollbackAs(tok, txn)
				return worked
			}
			if moved {
				d.RecordsMigrated.Inc()
				worked = true
			}
		}
	}
	d.sm.CommitAsync(txn, tx.CompletionFunc(func(error) {}))
	return worked
}

// readForMigration fetches the record under key on the owner's thread
// (nil error + nil record when it vanished — deleted by a foreground
// transaction between the scan and this point).
func readForMigration(tbl *catalog.Table, tok *btree.Owner, key int64) (tuple.Record, error) {
	v, err := tbl.Primary.Tree.GetAs(tok, key)
	if err != nil {
		return nil, nil
	}
	img, err := tbl.Heap.GetOwned(tok, storage.UnpackRID(v))
	if err != nil {
		return nil, err
	}
	return tuple.Decode(img)
}

// compactTable ships a CompactOwned pass to every worker of the table's
// partitioned indexes when the fan-out or occupancy warrants it.
func (d *Daemon) compactTable(table string) bool {
	tbl := d.sm.Cat.Table(table)
	rt := d.eng.Router(table)
	if tbl == nil || rt == nil {
		return false
	}
	parts := d.eng.NumPartitions(table)
	if parts == 0 {
		return false
	}
	need := false
	const bulkFill = btree.Order * 3 / 4
	for _, ix := range tbl.Indexes() {
		pt := ix.Partitioned()
		if pt == nil {
			continue
		}
		st := pt.ShapeStats()
		// Sparse only when a rebuild could actually shrink the tree —
		// an already-minimal small index never triggers compaction
		// (mirrors CompactOwned's own guard).
		minLeaves := (st.Keys + bulkFill - 1) / bulkFill
		if minLeaves < 1 {
			minLeaves = 1
		}
		sparse := st.Leaves > minLeaves &&
			float64(st.Keys) < float64(st.Leaves*bulkFill)*d.cfg.MinUtil
		if float64(st.Subtrees) > d.cfg.FanoutFactor*float64(parts) || sparse {
			need = true
			break
		}
	}
	if !need {
		return false
	}
	// Fan the compaction pass out to every owning worker concurrently
	// through the continuation ship path: each worker compacts its own
	// subtrees on its own thread while the daemon waits only for the
	// slowest, instead of parking on every round trip in turn.
	var workedAtomic atomic.Bool
	var wg sync.WaitGroup
	seen := map[int]bool{}
	for _, r := range rt.Ranges() {
		if seen[r.Part] {
			continue
		}
		seen[r.Part] = true
		wg.Add(1)
		d.eng.ExecOnOwnerAsync(table, r.Lo, func(ctx *dora.OwnerCtx) {
			tok := ctx.Ses().Owner()
			if tok == nil {
				return
			}
			// One partition-level probe instead of any key gating:
			// defer compaction while the partition has lock state (an
			// in-flight transaction may be mid-descent in a subtree a
			// rebuild would reshape). The periodic sweep re-marks the
			// table, so a deferred pass retries once traffic drains.
			if ctx.PartitionBusy() {
				d.UnitsDeferred.Inc()
				return
			}
			for _, ix := range ctx.Table().Indexes() {
				pt := ix.Partitioned()
				if pt == nil {
					continue
				}
				cs := pt.CompactOwned(tok, d.cfg.MinUtil)
				d.SubtreesMerged.Add(int64(cs.Merged))
				d.SubtreesRebuilt.Add(int64(cs.Rebuilt))
				d.GhostsPurged.Add(int64(cs.Ghosts))
				if cs.Merged+cs.Rebuilt > 0 {
					workedAtomic.Store(true)
				}
			}
		}, func(bool) { wg.Done() })
	}
	wg.Wait()
	return workedAtomic.Load()
}

// Drain synchronously runs maintenance over the named tables (all when
// none given) until a full pass does no work — the convergence point
// where every record sits on a page stamped to its owner and every
// index's fan-out is compacted. Tests and experiments use it to reach a
// deterministic converged state; the pacing loop reaches the same fixed
// point incrementally.
func (d *Daemon) Drain(tables ...string) {
	if len(tables) == 0 {
		for _, tbl := range d.sm.Cat.Tables() {
			tables = append(tables, tbl.Name)
		}
	}
	for pass := 0; pass < 1024; pass++ {
		worked := false
		for _, table := range tables {
			rt := d.eng.Router(table)
			if rt == nil || !d.eng.AccessPathClaimed(table) {
				continue
			}
			for _, r := range rt.Ranges() {
				if d.runUnit(unit{table: table, lo: r.Lo, kind: unitHeap}) {
					worked = true
				}
			}
			if d.runUnit(unit{table: table, lo: 0, kind: unitCompact}) {
				worked = true
			}
		}
		if !worked {
			// Converged: whatever the paced loop still has queued for
			// these tables is moot — retire it so Converging (the
			// balancer's maintenance gate) reads false. A later
			// rebalance re-marks them.
			d.clearPending(tables)
			return
		}
	}
}

// clearPending drops dirty marks and queued units for the given tables
// (Drain reached their fixed point).
func (d *Daemon) clearPending(tables []string) {
	set := make(map[string]bool, len(tables))
	for _, t := range tables {
		set[t] = true
	}
	d.mu.Lock()
	keptU := d.queue[:0]
	for _, u := range d.queue {
		if !set[u.table] {
			keptU = append(keptU, u)
		}
	}
	d.queue = keptU
	keptT := d.dirtyQ[:0]
	for _, tb := range d.dirtyQ {
		if set[tb] {
			delete(d.dirty, tb)
		} else {
			keptT = append(keptT, tb)
		}
	}
	d.dirtyQ = keptT
	d.mu.Unlock()
}

// Stats is a point-in-time snapshot of the daemon's progress counters.
type Stats struct {
	PagesStamped    int64 `json:"pages_stamped"`
	RecordsMigrated int64 `json:"records_migrated"`
	RecordsSkipped  int64 `json:"records_skipped"`
	RangesCleared   int64 `json:"ranges_cleared"`
	SubtreesMerged  int64 `json:"subtrees_merged"`
	SubtreesRebuilt int64 `json:"subtrees_rebuilt"`
	GhostsPurged    int64 `json:"ghosts_purged"`
	UnitsDeferred   int64 `json:"units_deferred"`
	UnitsRun        int64 `json:"units_run"`
	QueueLen        int   `json:"queue_len"`
}

// Snapshot returns current progress counters.
func (d *Daemon) Snapshot() Stats {
	d.mu.Lock()
	qlen := len(d.queue) + len(d.dirtyQ)
	d.mu.Unlock()
	return Stats{
		PagesStamped:    d.PagesStamped.Load(),
		RecordsMigrated: d.RecordsMigrated.Load(),
		RecordsSkipped:  d.RecordsSkipped.Load(),
		RangesCleared:   d.RangesCleared.Load(),
		SubtreesMerged:  d.SubtreesMerged.Load(),
		SubtreesRebuilt: d.SubtreesRebuilt.Load(),
		GhostsPurged:    d.GhostsPurged.Load(),
		UnitsDeferred:   d.UnitsDeferred.Load(),
		UnitsRun:        d.UnitsRun.Load(),
		QueueLen:        qlen,
	}
}
