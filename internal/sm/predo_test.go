package sm

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"dora/internal/buffer"
	"dora/internal/page"
	"dora/internal/tuple"
	"dora/internal/wal"
)

// pageDigest hashes every heap page of every table — catalog order,
// ascending page id, full page bytes — for byte-for-byte end-state
// comparison between recoveries.
func pageDigest(t *testing.T, s *SM) string {
	t.Helper()
	h := sha256.New()
	for _, tbl := range s.Cat.Tables() {
		pids := tbl.Heap.Pages()
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
		for _, pid := range pids {
			f, err := s.Pool.Fetch(pid)
			if err != nil {
				t.Fatal(err)
			}
			f.Latch.RLock()
			h.Write(f.Page.Data[:])
			f.Latch.RUnlock()
			s.Pool.Unpin(f, false)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestParallelRecoveryEquivalence crashes a mixed workload (winners,
// losers, inserts/updates/deletes across many pages) and recovers it at
// several applier counts: every recovery must leave byte-identical heap
// pages AND append a byte-identical undo tail (CLRs + end records) to its
// log — serial/parallel end-state equivalence.
func TestParallelRecoveryEquivalence(t *testing.T) {
	store := wal.NewMemStore()
	s, err := Open(Options{Frames: 256, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	tbl := testTable(t, s)
	ses := s.Session(0)
	// Winners: enough rows to spread across pages, with updates and
	// deletes so redo exercises every physical kind.
	for g := 0; g < 10; g++ {
		txn := s.Begin()
		for i := int64(0); i < 30; i++ {
			id := int64(g)*30 + i + 1
			if err := ses.Insert(txn, tbl, acct(id, "w", id)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	mod := s.Begin()
	for id := int64(1); id <= 100; id += 3 {
		if err := ses.Update(mod, tbl, id, acct(id, "u", id*10)); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(2); id <= 100; id += 7 {
		if err := ses.Delete(mod, tbl, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(mod); err != nil {
		t.Fatal(err)
	}
	// Two in-flight losers so undo has work — their CLR order must come
	// out identical across recoveries.
	l1, l2 := s.Begin(), s.Begin()
	_ = ses.Insert(l1, tbl, acct(900, "loser", 0))
	_ = ses.Update(l1, tbl, 10, acct(10, "loser", -1))
	_ = ses.Insert(l2, tbl, acct(901, "loser", 0))
	_ = ses.Delete(l2, tbl, 13)
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}

	var wantPages, wantLog string
	for _, workers := range []int{1, 2, 4, 8} {
		crashed := store.CrashCopy()
		s2, err := Open(Options{Frames: 256, Disk: buffer.NewMemDisk(), LogStore: crashed, RedoWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tbl2 := testTable(t, s2)
		st, err := s2.Recover()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Losers != 2 {
			t.Fatalf("workers=%d: losers = %d, want 2", workers, st.Losers)
		}
		pg := pageDigest(t, s2)
		raw, err := crashed.Contents()
		if err != nil {
			t.Fatal(err)
		}
		lg := fmt.Sprintf("%x", sha256.Sum256(raw))
		if workers == 1 {
			wantPages, wantLog = pg, lg
		} else {
			if pg != wantPages {
				t.Fatalf("workers=%d: heap pages diverge from serial recovery", workers)
			}
			if lg != wantLog {
				t.Fatalf("workers=%d: undo log tail diverges from serial recovery", workers)
			}
		}
		// Spot-check semantics on top of the byte equality.
		ses2 := s2.Session(0)
		if rec, err := ses2.Read(s2.Begin(), tbl2, 4); err != nil || rec[2].Int != 40 {
			t.Fatalf("workers=%d: updated key 4: %v %v", workers, rec, err)
		}
		if _, err := ses2.Read(s2.Begin(), tbl2, 900); !errors.Is(err, ErrNotFound) {
			t.Fatalf("workers=%d: loser insert visible: %v", workers, err)
		}
		if rec, err := ses2.Read(s2.Begin(), tbl2, 13); err != nil || rec[1].Str != "u" {
			t.Fatalf("workers=%d: loser delete not undone: %v %v", workers, rec, err)
		}
	}
}

// TestParallelReplayFailStop poisons the applier pool with a physically
// impossible record (update of a slot that does not exist): the first
// applier error must latch, surface at the extent barrier, and stay
// sticky for every later barrier — fail-stop for the whole pool.
func TestParallelReplayFailStop(t *testing.T) {
	s, err := Open(Options{Frames: 64, RedoWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tbl := testTable(t, s)
	rp := NewReplayer(s)
	defer rp.Close()

	img := tuple.Encode(acct(1, "a", 1))
	feed := []*wal.Record{
		{LSN: 0, TxnID: 1, Kind: wal.KInsert, Table: tbl.ID, Page: 0, Slot: 0, Key: 1, Redo: img},
		{LSN: 100, TxnID: 1, Kind: wal.KCommit},
		// Slot 99 was never inserted: the applier's RedoPatch must error.
		{LSN: 200, TxnID: 2, Kind: wal.KUpdate, Table: tbl.ID, Page: 0, Slot: 99, Key: 1, Redo: img},
		{LSN: 300, TxnID: 2, Kind: wal.KCommit},
	}
	var applyErr error
	for _, r := range feed {
		if applyErr = rp.Apply(r); applyErr != nil {
			break
		}
	}
	if applyErr == nil {
		applyErr = rp.Sync()
	}
	if applyErr == nil {
		t.Fatal("poisoned stream applied without error")
	}
	if err := rp.Sync(); err == nil {
		t.Fatal("pool error not sticky across barriers")
	}
}

// redoRec fabricates a physical record for pool-level tests; only Page
// (sharding) and a well-formed encoding (end-LSN accounting) matter.
func redoRec(i int) *redoTask {
	return &redoTask{rec: &wal.Record{LSN: wal.LSN(1000 + i*100), TxnID: 1, Kind: wal.KInsert, Page: page.ID(i)}}
}

// TestAdaptiveRedoGrowShrink drives the pool-level sizing policy through
// a full cycle: a backlogged window doubles the applier set (up to the
// cap), an idle window halves it (down to the floor), and a window with
// too few samples decides nothing.
func TestAdaptiveRedoGrowShrink(t *testing.T) {
	gate := make(chan struct{})
	p := newRedoPool(2, func(t *redoTask) { <-gate })
	p.setAdaptive(1, 8)
	defer p.close()

	// Backlogged: appliers parked on the gate, so post-push depth climbs
	// far past the grow threshold across the window.
	for i := 0; i < 2*redoResizeWindow; i++ {
		p.dispatch(redoRec(i))
	}
	close(gate)
	if err := p.barrier(nil); err != nil {
		t.Fatal(err)
	}
	p.maybeResize()
	if got := len(p.workers); got != 4 {
		t.Fatalf("after backlogged window: %d workers, want 4", got)
	}

	// Idle: a barrier between dispatches keeps every queue empty, so each
	// post-push depth is exactly 1 — at the shrink threshold.
	idleWindow := func() {
		t.Helper()
		for i := 0; i < redoResizeWindow; i++ {
			p.dispatch(redoRec(i))
			if err := p.barrier(nil); err != nil {
				t.Fatal(err)
			}
		}
		p.maybeResize()
	}
	idleWindow()
	if got := len(p.workers); got != 2 {
		t.Fatalf("after idle window: %d workers, want 2", got)
	}
	idleWindow()
	if got := len(p.workers); got != 1 {
		t.Fatalf("after second idle window: %d workers, want 1", got)
	}
	idleWindow() // at the floor: no further shrink
	if got := len(p.workers); got != 1 {
		t.Fatalf("below floor: %d workers, want 1", got)
	}
	if got := p.stats().Resizes; got != 3 {
		t.Fatalf("resizes = %d, want 3", got)
	}

	// Too few samples: an undersized window must not decide.
	for i := 0; i < redoResizeWindow/2; i++ {
		p.dispatch(redoRec(i))
	}
	if err := p.barrier(nil); err != nil {
		t.Fatal(err)
	}
	p.maybeResize()
	if got := len(p.workers); got != 1 {
		t.Fatalf("undersized window resized: %d workers, want 1", got)
	}
}

// TestAdaptiveRedoCap verifies growth saturates at the configured cap.
func TestAdaptiveRedoCap(t *testing.T) {
	p := newRedoPool(2, func(t *redoTask) {})
	p.setAdaptive(1, 3)
	defer p.close()
	// Force a grow decision regardless of scheduling: feed the window
	// counters directly (they are dispatcher-state, and this test is the
	// dispatcher).
	p.winDispatches = redoResizeWindow
	p.winDepthSum = redoResizeWindow * (redoDepthGrow + 1)
	p.maybeResize()
	if got := len(p.workers); got != 3 {
		t.Fatalf("growth past cap: %d workers, want 3", got)
	}
}

// TestAdaptiveRedoCorrectAcrossResize replays the same stream through an
// adaptively resizing pool and a serial replayer; the resize barrier
// discipline must keep per-page order, so both must apply identically.
func TestAdaptiveRedoCorrectAcrossResize(t *testing.T) {
	gate := make(chan struct{})
	var applied []uint64
	var mu sync.Mutex
	p := newRedoPool(2, func(t *redoTask) {
		<-gate
		mu.Lock()
		applied = append(applied, uint64(t.rec.LSN))
		mu.Unlock()
	})
	p.setAdaptive(1, 8)
	defer p.close()

	// Phase 1: backlog on few pages so per-worker FIFOs hold multiple
	// records per page, then grow.
	n := 0
	for i := 0; i < 2*redoResizeWindow; i++ {
		task := redoRec(i % 4) // 4 pages → contended queues
		task.rec.LSN = wal.LSN(1000 + n*100)
		n++
		p.dispatch(task)
	}
	close(gate)
	var order []uint64
	consume := func(t *redoTask) error {
		order = append(order, uint64(t.rec.LSN))
		return nil
	}
	if err := p.barrier(consume); err != nil {
		t.Fatal(err)
	}
	p.maybeResize()
	if len(p.workers) <= 2 {
		t.Fatalf("expected growth, still %d workers", len(p.workers))
	}
	// Phase 2: same pages land on remapped appliers after the resize.
	for i := 0; i < redoResizeWindow; i++ {
		task := redoRec(i % 4)
		task.rec.LSN = wal.LSN(1000 + n*100)
		n++
		p.dispatch(task)
	}
	if err := p.barrier(consume); err != nil {
		t.Fatal(err)
	}
	// The completion stream must be in dispatch order, gap-free.
	if len(order) != n {
		t.Fatalf("consumed %d tasks, want %d", len(order), n)
	}
	for i, lsn := range order {
		if lsn != uint64(1000+i*100) {
			t.Fatalf("completion %d out of order: lsn %d", i, lsn)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(applied) != n {
		t.Fatalf("applied %d tasks, want %d", len(applied), n)
	}
}
