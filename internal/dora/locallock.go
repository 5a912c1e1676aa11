package dora

import "dora/internal/xct"

// Partition-private local lock tables (paper §1.1: "Each worker thread
// receives actions and executes them in a sequential fashion while
// maintaining a private lock table"). Because the owning worker is the
// only thread that ever touches its table, no latching is needed — this
// absence is exactly how DORA eliminates the lock manager's critical
// sections.
//
// The table is hierarchical (hierLockTable, hierlock.go): partition →
// granule (key range) → key, with IS/IX/S/SIX/X modes, one-coarse-lock
// range scans, and per-transaction lock escalation. Keys are values of
// the table's current partitioning field. Nodes track granted
// (transaction, mode) pairs and FIFO waiter queues of undispatched
// actions.

// lockStats is the single-threaded accounting every table keeps; the
// partition mirrors it into atomic gauges after each inbox batch.
type lockStats struct {
	// acquisitions counts lock-table grant operations, one per hierarchy
	// node touched — O(1) in a range scan's width.
	acquisitions int64
	// rangeLocks counts coarse (granule- or partition-level) S/X grants
	// taken by ranged actions.
	rangeLocks int64
	// escalations / deescalations count per-transaction lock escalation
	// (N key locks under one granule folded into one coarse lock) and
	// the release of escalated holds.
	escalations   int64
	deescalations int64
	// keyProbes / rangeProbes count maintenance busy-gating probes
	// (KeyBusy per record vs RangeBusy per range).
	keyProbes   int64
	rangeProbes int64
}

// llHold is one granted (transaction, mode) pair.
type llHold struct {
	txn  uint64
	mode xct.LockMode
}

// wnLevel values: where a blocked action parked (actionMsg.wnLevel).
const (
	wnKey     = 0 // key node, id = key
	wnGranule = 1 // granule node, id = granule id
	wnRoot    = 2 // partition root, id unused
)
