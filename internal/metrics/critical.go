package metrics

// CriticalSectionStats counts entries into contended critical sections,
// classified by subsystem. This is the instrument behind experiment E4:
// the companion DORA paper's central claim is that the conventional
// thread-to-transaction design forces every transaction through a large
// number of lock-manager critical sections, while DORA's thread-to-data
// design eliminates nearly all of them.
type CriticalSectionStats struct {
	// LockMgr counts entries into the centralized lock manager's internal
	// critical sections (lock-table bucket latches, wait-queue mutation,
	// deadlock-detector registration).
	LockMgr Counter
	// Latch counts page/node latch acquisitions. The original DORA paper
	// removes *lock-manager* serialization and leaves latching in place;
	// since the partitioned access path (PLP-style per-partition B+tree
	// subtrees) that caveat is partially retired: owner-
	// thread index descents are latch-free, and only page/frame latches
	// plus shared-tree residue remain here.
	Latch Counter
	// IndexLatch counts the subset of Latch that came from B+tree node
	// crabbing — the serialization the partitioned access path removes.
	// It is a view into Latch, not an additional class: Total() does not
	// add it again.
	IndexLatch Counter
	// FrameLatch counts the subset of Latch that came from buffer-frame
	// latches taken by heap record accesses — the serialization heap-page
	// ownership stamping removes: for owner-thread aligned reads via
	// background maintenance, and for owner-thread mutations via the
	// copy-on-write page-cleaning protocol. Like IndexLatch it is a view into Latch, not an additional
	// class.
	FrameLatch Counter
	// FrameLatchWrite counts the subset of FrameLatch taken exclusively
	// for a heap record MUTATION (insert/update/delete). It is the
	// residual the latch-free owner write path drives to ~0 on stamped
	// pages; a view into FrameLatch (and so into Latch), never added
	// again by Total().
	FrameLatchWrite Counter
	// Log counts log-manager serialization points (buffer reservation).
	// Under the consolidation-array log this is one entry per reserved
	// group, not per record: appends that piggyback on another thread's
	// reservation never enter the critical section, which is exactly the
	// effect the consolidation array exists to produce.
	Log Counter
	// TxnMgr counts transaction-manager critical sections (begin/commit
	// bookkeeping in shared structures).
	TxnMgr Counter
	// Contended counts critical-section entries that had to wait (the
	// acquisition was not immediately granted).
	Contended Counter
}

// SnapshotCS is a point-in-time copy of CriticalSectionStats.
type SnapshotCS struct {
	LockMgr         int64 `json:"lock_mgr"`
	Latch           int64 `json:"latch"`
	IndexLatch      int64 `json:"index_latch"`
	FrameLatch      int64 `json:"frame_latch"`
	FrameLatchWrite int64 `json:"frame_latch_write"`
	Log             int64 `json:"log"`
	TxnMgr          int64 `json:"txn_mgr"`
	Contended       int64 `json:"contended"`
}

// Snapshot returns current values.
func (c *CriticalSectionStats) Snapshot() SnapshotCS {
	return SnapshotCS{
		LockMgr:         c.LockMgr.Load(),
		Latch:           c.Latch.Load(),
		IndexLatch:      c.IndexLatch.Load(),
		FrameLatch:      c.FrameLatch.Load(),
		FrameLatchWrite: c.FrameLatchWrite.Load(),
		Log:             c.Log.Load(),
		TxnMgr:          c.TxnMgr.Load(),
		Contended:       c.Contended.Load(),
	}
}

// Reset zeroes all counters.
func (c *CriticalSectionStats) Reset() {
	c.LockMgr.Reset()
	c.Latch.Reset()
	c.IndexLatch.Reset()
	c.FrameLatch.Reset()
	c.FrameLatchWrite.Reset()
	c.Log.Reset()
	c.TxnMgr.Reset()
	c.Contended.Reset()
}

// Total returns the sum of all critical-section entries.
func (s SnapshotCS) Total() int64 {
	return s.LockMgr + s.Latch + s.Log + s.TxnMgr
}
