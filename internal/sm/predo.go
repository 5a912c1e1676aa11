package sm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/wal"
)

// The redo pool is the one way a log record reaches a heap: restart
// recovery, replica bootstrap, live replica apply and promotion all feed
// it. It is the paper's thread-to-data principle applied to the backward
// paths. Physical log records (KInsert/KUpdate/KDelete/KCLR) have only
// one ordering requirement, PER PAGE — page-LSN idempotence and
// RedoInsert's slot-allocation determinism are per-page invariants, and
// two records touching distinct pages commute. So a single dispatcher
// scans the log in LSN order and fans physical records out to applier
// workers sharded by page id: each worker drains its own
// FIFO queue, which preserves LSN order within every page while distinct
// pages redo concurrently — each applier exclusively "owns" the slice of
// pages that hash to it, exactly the ownership discipline the forward
// path uses. With Options.RedoWorkers ≤ 1 there are no workers: the
// dispatcher applies and finishes each record itself, right away.
//
// Everything with global ordering requirements stays on the dispatcher:
// transaction-resolution records (commit-horizon advancement must not
// outrun a commit's effects), checkpoint attachment maps, page
// attachment (before the page's first task is enqueued), loser undo, and
// — on a live replica — incremental index maintenance, because one key's
// index operations can span pages (an update that relocates a record
// deletes on one page and reinserts on another), so they cannot ride the
// page shard. The dispatcher therefore consumes a COMPLETION stream in
// dispatch (= LSN) order: appliers do the heap work and capture pre-redo
// before-images; the dispatcher finishes each task — index fixes, commit
// horizon, applied-LSN advancement — strictly in order, like a
// reorder buffer.
//
// Failure is fail-stop for the whole pool: the first applier error
// latches, subsequent tasks complete without applying, and the barrier
// reports the first error.

// redoTask is one log record in flight through the pool.
type redoTask struct {
	rec *wal.Record
	// oldRec/newRec are decoded on the applier when the pool captures
	// images: the pre-redo before image (updates and deletes; nil when the
	// slot was empty or undecodable) and the after image. The
	// dispatcher's in-order finish uses them for index maintenance.
	oldRec tuple.Record
	newRec tuple.Record
	err    error
	// images asks the applier for oldRec and newRec.
	images bool
	// done is guarded by the pool mutex.
	done bool
}

// end returns the end LSN of the task's record.
func (t *redoTask) end() uint64 { return t.rec.LSN + uint64(wal.EncodedSize(t.rec)) }

// redoWorker is one applier: a FIFO queue of tasks for the pages that
// hash to it, drained by a dedicated goroutine.
type redoWorker struct {
	pool *redoPool

	mu     sync.Mutex
	cond   *sync.Cond
	q      []*redoTask
	closed bool

	// depth mirrors len(q) for lock-free monitoring; applied is the end
	// LSN of the last record this applier finished (monitoring only — the
	// authoritative applied horizon is the dispatcher's in-order one).
	depth   atomic.Int64
	applied atomic.Uint64
}

func (w *redoWorker) push(t *redoTask) int {
	w.mu.Lock()
	w.q = append(w.q, t)
	d := len(w.q)
	w.cond.Signal()
	w.mu.Unlock()
	w.depth.Store(int64(d))
	return d
}

func (w *redoWorker) run() {
	defer w.pool.wg.Done()
	for {
		w.mu.Lock()
		for len(w.q) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.q) == 0 {
			w.mu.Unlock()
			return
		}
		t := w.q[0]
		w.q = w.q[1:]
		w.mu.Unlock()
		w.depth.Add(-1)
		p := w.pool
		// Fail-stop: once any applier errored, the rest of the stream is
		// marked done without applying — the pool is poisoned and the
		// barrier surfaces the first error.
		if !p.failed.Load() {
			p.apply(t)
		}
		p.mu.Lock()
		t.done = true
		p.failLocked(t.err)
		p.cond.Broadcast()
		p.mu.Unlock()
		if t.err == nil {
			w.applied.Store(t.end())
		}
	}
}

// redoPool is the dispatcher-side handle: sharded applier queues plus the
// in-order completion stream. The dispatcher is single-threaded (callers
// serialize on the replayer's mutex); only the completion bookkeeping is
// shared with appliers, under mu.
type redoPool struct {
	s *SM
	// images makes apply capture before and after images for finish's
	// index maintenance; consumers that rebuild the indexes afterwards
	// leave it off. Dispatcher-only: each task carries its own copy.
	images bool
	// finish consumes each record in dispatch order on the dispatcher.
	finish func(*redoTask)
	// inline is the one task an inline pool (no workers) reuses.
	inline redoTask

	workers []*redoWorker
	wg      sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signaled as tasks complete
	inflight []*redoTask
	head     int // consumed prefix of inflight
	err      error
	failed   atomic.Bool

	maxDepth int64 // high-water applier queue depth (monitoring)
}

// newRedoPool starts s's configured number of appliers; with
// Options.RedoWorkers ≤ 1 it starts none and runs inline.
func newRedoPool(s *SM, images bool, finish func(*redoTask)) *redoPool {
	p := &redoPool{s: s, images: images, finish: finish}
	p.cond = sync.NewCond(&p.mu)
	n := s.redoWorkers
	if n == 1 {
		n = 0 // one applier would only add a hand-off
	}
	for i := 0; i < n; i++ {
		w := &redoWorker{pool: p}
		w.cond = sync.NewCond(&w.mu)
		p.workers = append(p.workers, w)
		p.wg.Add(1)
		go w.run()
	}
	return p
}

// apply redoes t's physical record onto its table's heap — the only code
// that replays a log record into a heap. With t.images set it also
// captures the slot's pre-redo before image and its after image. The
// record's page is attached (so its table exists) before dispatch.
func (p *redoPool) apply(t *redoTask) {
	r := t.rec
	h := p.s.Cat.TableByID(r.Table).Heap
	rid := storage.RID{Page: r.Page, Slot: r.Slot}
	var err error
	switch wal.PhysicalKind(r) {
	case wal.KInsert:
		if err = h.RedoInsert(rid, r.Redo, r.LSN); err == nil && t.images {
			t.newRec, err = tuple.Decode(r.Redo)
		}
	case wal.KUpdate:
		if t.images {
			t.oldRec, t.newRec, err = redoUpdate(h, r)
		} else {
			_, err = h.RedoPatch(r)
		}
	case wal.KDelete:
		if t.images {
			if img, gerr := h.Get(rid); gerr == nil {
				t.oldRec, _ = tuple.Decode(img)
			}
		}
		err = h.RedoDelete(rid, r.LSN)
	}
	if err != nil {
		t.err = fmt.Errorf("sm: redo lsn %d: %w", r.LSN, err)
	}
}

// redoUpdate redoes the update patch r and returns the record before and
// after it, for index maintenance: the after image is the pre-redo image
// spliced with the patch, which the redo has just verified. A redo the
// page LSN skips returns two nil records, as does one whose slot cannot
// be read before it (the redo then fails on that slot). Get and Decode
// both copy, so the records cannot alias page bytes a later record on
// this page mutates.
func redoUpdate(h *storage.Heap, r *wal.Record) (old, rec tuple.Record, err error) {
	img, gerr := h.Get(storage.RID{Page: r.Page, Slot: r.Slot})
	applied, err := h.RedoPatch(r)
	if err != nil || !applied || gerr != nil {
		return nil, nil, err
	}
	if old, err = tuple.Decode(img); err != nil {
		return nil, nil, err
	}
	rec, err = tuple.Decode(wal.Splice(nil, img, int(r.Off), r.Redo, len(r.Undo)))
	return old, rec, err
}

// dispatch feeds one record into the pool, in LSN order. With redo set,
// a physical record's heap work goes to the applier owning its page —
// tasks for one page always land on the same worker queue, so per-page
// LSN order is preserved by FIFO; every other record only joins the
// completion stream, already done, so finish sees every record in
// order. An inline pool applies and finishes the record right here and
// returns its error; a pool with workers reports errors at the barrier.
func (p *redoPool) dispatch(r *wal.Record, redo bool) error {
	redo = redo && wal.PhysicalKind(r) != 0
	if len(p.workers) == 0 {
		if p.failed.Load() {
			return p.Err()
		}
		t := &p.inline
		*t = redoTask{rec: r, images: p.images}
		if redo {
			p.apply(t)
		}
		if t.err != nil {
			p.mu.Lock()
			p.failLocked(t.err)
			p.mu.Unlock()
			return t.err
		}
		p.finish(t)
		return nil
	}
	t := &redoTask{rec: r, images: p.images, done: !redo}
	p.mu.Lock()
	p.inflight = append(p.inflight, t)
	p.mu.Unlock()
	if redo {
		w := p.workers[int(uint64(r.Page))%len(p.workers)]
		if d := int64(w.push(t)); d > atomic.LoadInt64(&p.maxDepth) {
			atomic.StoreInt64(&p.maxDepth, d)
		}
	}
	return nil
}

// failLocked latches err as the pool's first error (mu held).
func (p *redoPool) failLocked(err error) {
	if err != nil && p.err == nil {
		p.err = err
		p.failed.Store(true)
	}
}

// takeReadyLocked pops the completed prefix of the stream (mu held).
func (p *redoPool) takeReadyLocked() []*redoTask {
	lo := p.head
	for p.head < len(p.inflight) && p.inflight[p.head].done {
		p.head++
	}
	batch := p.inflight[lo:p.head]
	if p.head == len(p.inflight) {
		p.inflight = p.inflight[:0]
		p.head = 0
	}
	return batch
}

// drainReady finishes completed head tasks in dispatch (= LSN) order
// without blocking. finish runs with no pool locks held, so it may take
// whatever caller locks it needs (the replayer runs it under rp.mu).
func (p *redoPool) drainReady() error {
	p.mu.Lock()
	batch := p.takeReadyLocked()
	p.mu.Unlock()
	return p.finishBatch(batch)
}

// barrier blocks until every dispatched task has completed and been
// finished in order — the epoch boundary restart places at the end of
// redo and the replica places at the end of every extent (before
// releasing stateMu to readers). Returns the pool's first error.
func (p *redoPool) barrier() error {
	for {
		p.mu.Lock()
		for p.head < len(p.inflight) && !p.inflight[p.head].done {
			p.cond.Wait()
		}
		batch := p.takeReadyLocked()
		empty := p.head == len(p.inflight)
		p.mu.Unlock()
		if err := p.finishBatch(batch); err != nil {
			return err
		}
		if empty {
			return p.Err()
		}
	}
}

// finishBatch finishes batch in order, stopping at the first sign of a
// failed pool: a task that completed after the failure was not applied.
func (p *redoPool) finishBatch(batch []*redoTask) error {
	for _, t := range batch {
		if p.failed.Load() {
			return p.Err()
		}
		p.finish(t)
	}
	return nil
}

// Err returns the pool's sticky first error (fail-stop latch).
func (p *redoPool) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// close joins the appliers; the pool runs inline from then on. Callers
// barrier first; close only tears the goroutines down.
func (p *redoPool) close() {
	for _, w := range p.workers {
		w.mu.Lock()
		w.closed = true
		w.cond.Broadcast()
		w.mu.Unlock()
	}
	p.wg.Wait()
	p.workers = nil
}

// RedoApplierStat is one applier's monitoring sample.
type RedoApplierStat struct {
	// AppliedLSN is the end LSN of the last record this applier finished
	// (per-page progress; the transaction-consistent horizon is the
	// dispatcher's).
	AppliedLSN uint64 `json:"applied_lsn"`
	// QueueDepth is the applier's current inbox depth.
	QueueDepth int `json:"queue_depth"`
}

// RedoStats is the redo pool's monitoring view.
type RedoStats struct {
	Workers       int               `json:"workers"`
	MaxQueueDepth int64             `json:"max_queue_depth"`
	Appliers      []RedoApplierStat `json:"appliers,omitempty"`
}

func (p *redoPool) stats() RedoStats {
	st := RedoStats{
		Workers:       len(p.workers),
		MaxQueueDepth: atomic.LoadInt64(&p.maxDepth),
	}
	for _, w := range p.workers {
		st.Appliers = append(st.Appliers, RedoApplierStat{
			AppliedLSN: w.applied.Load(),
			QueueDepth: int(w.depth.Load()),
		})
	}
	return st
}
