package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dora/internal/latch"
	"dora/internal/metrics"
	"dora/internal/page"
)

// LogForcer is the slice of the log manager the buffer pool needs to
// enforce write-ahead logging: before a dirty page is written back, the
// log must be durable up to the page's LSN.
type LogForcer interface {
	// Force blocks until all log records with LSN <= lsn are durable.
	Force(lsn uint64) error
}

// ErrNoFrames reports that every candidate frame is pinned and none can
// be evicted.
var ErrNoFrames = errors.New("buffer: all frames pinned")

// Frame is a buffer-pool slot holding one page. Callers access Page only
// between Fetch/NewPage and Unpin, under the frame Latch (shared for
// reads, exclusive for updates).
type Frame struct {
	// Latch protects Page content.
	Latch latch.Latch
	// Page is the cached page image.
	Page page.Page

	id    page.ID
	idx   int // index within the owning shard
	pins  atomic.Int32
	dirty atomic.Bool
	// pool points back at the owning pool for dirty-transition
	// accounting (the Swap in setDirty/clearDirty makes each
	// clean<->dirty transition count exactly once).
	pool  *Pool
	ref   atomic.Bool
	valid bool
	// loading is set while a Fetch miss reads the page image from disk.
	// Latched readers wait on the frame latch the miss holds; LATCH-FREE
	// accessors (owner-thread reads AND writes of stamped heap pages)
	// must check this flag and fall back to the latched path while it is
	// set, or they could observe (or scribble over) a half-read image.
	loading atomic.Bool
	// seq is the frame's write sequence: every heap record mutation bumps
	// it immediately BEFORE touching page bytes (storage bumps it on the
	// latched paths too, so the counter is protocol-independent). The
	// copy-on-write cleaning protocol uses it for conflict detection in
	// place of the frame latch: a snapshot copy taken on the owner's
	// thread records the sequence, and after the copy hardens the dirty
	// bit is cleared only if the sequence is unchanged (finishClean's
	// double-check makes the clear safe against a concurrent bump).
	seq atomic.Uint64
	// hardenMu serializes write-backs of this frame's page, and hardened
	// (guarded by it) records the write seq of the newest image on disk:
	// with several cleaners racing (the engine's own daemon, checkpoint
	// FlushAll, extra embedder cleaners), a STALE snapshot must never
	// overwrite a newer hardened image — seq is monotone per frame, so
	// the comparison is decisive.
	hardenMu sync.Mutex
	hardened uint64
}

// ID returns the id of the page currently cached in the frame.
func (f *Frame) ID() page.ID { return f.id }

// MarkDirty records that the caller modified the page. Call while holding
// the frame latch exclusively.
func (f *Frame) MarkDirty() { f.setDirty() }

func (f *Frame) setDirty() {
	p := f.pool
	if f.dirty.Swap(true) || p == nil {
		return
	}
	p.dirtyEst.Add(1)
	// Tell the cleaner where the dirty page is. Callers hold the frame
	// in use (latch or owner thread), so f.id is stable here; the
	// consumer re-validates through the shard table anyway. A full
	// queue drops the hint and flags one fallback scan instead.
	select {
	case p.dirtyq <- f.id:
	default:
		p.dirtyScan.Store(true)
	}
}

func (f *Frame) clearDirty() {
	if f.dirty.Swap(false) && f.pool != nil {
		f.pool.dirtyEst.Add(-1)
	}
}

// Loading reports whether the frame's page image is still being read
// from disk. The atomic store that clears it is ordered after the disk
// read completes, so a reader observing false sees the full image.
func (f *Frame) Loading() bool { return f.loading.Load() }

// BumpWriteSeq advances the frame's write sequence. Heap mutators call it
// immediately before modifying page bytes (on every path, latched or
// latch-free); the bump-BEFORE-mutate order is what makes finishClean's
// conditional dirty-clear sound — see that function.
func (f *Frame) BumpWriteSeq() { f.seq.Add(1) }

// WriteSeq returns the current write sequence (read at snapshot-copy
// time, on the owning worker's thread, so no bump can be mid-flight).
func (f *Frame) WriteSeq() uint64 { return f.seq.Load() }

// shard is one latch-striped slice of the pool: its own mapping table,
// clock hand and frame set. A page id always maps to the same shard, so
// two workers touching different shards never contend on a pool mutex.
type shard struct {
	mu     sync.Mutex
	table  map[page.ID]int // page id -> index into frames
	frames []*Frame
	hand   int
}

// PageSnapshot is a consistent copy of a stamped page, produced ON the
// owning worker's thread (the only mutator of the live frame). Frame is
// pinned by the producer; hardenSnapshot unpins it after the copy is on
// disk. Seq is the frame write sequence at copy time.
type PageSnapshot struct {
	Frame *Frame
	Img   *page.Page
	Seq   uint64
}

// SnapshotterAsync ships a "snapshot page" request for a stamped dirty
// page to the worker owning its stamp and returns immediately; done
// fires exactly once — possibly on the owning worker's thread — with the
// copy the owner took at a quiescent point of its own thread, or
// ok=false when the page is no longer stamped or the owner retired
// mid-ship (the caller re-resolves). Checkpoints keep MANY ships in
// flight at once instead of serializing on one owner round-trip per
// stamped page; a single write-back waits for its one reply. The
// receiver must never block in done (hardening happens on the caller's
// side, off the owner's thread).
type SnapshotterAsync func(id page.ID, done func(PageSnapshot, bool))

// Pool is the buffer pool. The frame table and clock state are sharded by
// page id; hot counters are shared (they are padded atomics).
type Pool struct {
	disk Disk
	// log is swappable at runtime (atomic): a promoted replica adopts an
	// appendable log manager in place of its read-only delivered-stream
	// one, while eviction write-backs keep forcing concurrently.
	log atomic.Pointer[LogForcer]
	// frames is the flat registry of every frame — used only for
	// capacity (NumFrames) and pre-traffic wiring (SetStats). All
	// steady-state access goes through the shards, which hold the same
	// pointers under their own mutexes; never iterate frames for page
	// state without the owning shard's lock.
	frames []*Frame
	shards []*shard
	cs     *metrics.CriticalSectionStats

	// stamped is the pool's mirror of which pages currently carry an
	// owner stamp (the storage layer marks/unmarks it in lock-step with
	// its own stamp registry): one lock-free load per eviction candidate,
	// no catalog walk under the shard mutex. snapshotterAsync ships copy
	// requests to owning workers (wired by the DORA engine; atomic so
	// daemons racing engine construction read consistently). With stamps
	// but no snapshotter (direct owned sessions in tests), write-back
	// falls back to the latched path — safe only because such rigs
	// quiesce owner mutators before flushing.
	stamped          sync.Map // page.ID -> struct{}
	snapshotterAsync atomic.Pointer[SnapshotterAsync]
	// cleanq carries page ids the eviction path found dirty-and-stamped:
	// it cannot clean them itself (that needs the owner's thread), so it
	// nudges the cleaner daemon and moves on. Best effort: a full queue
	// drops the hint (the cleaner's sweep finds the page anyway).
	cleanq chan page.ID
	// cleanCursor rotates CleanSome's shard start so a batch cap cannot
	// starve high-index shards behind persistently dirty low ones.
	cleanCursor atomic.Uint32
	// dirtyEst estimates the pool's dirty-frame count (exact transition
	// accounting; momentarily low while a clear races a re-dirty). It
	// bounds CleanSome's scan pass — without it the paced daemon
	// would lock and scan EVERY shard each tick whenever the pool holds
	// fewer dirty frames than its batch, i.e. precisely when it is
	// keeping up.
	dirtyEst atomic.Int64
	// dirtyq carries page ids on their clean->dirty transition, so the
	// paced cleaner drains KNOWN dirty locations instead of scanning
	// all shards to find a few scattered dirty frames. Entries are
	// hints, re-validated through the shard table before cleaning; an
	// overflow drops the hint and sets dirtyScan, making the next
	// CleanSome fall back to one bounded scan.
	dirtyq    chan page.ID
	dirtyScan atomic.Bool

	// Hits and Misses count page lookups served from memory vs disk.
	Hits   metrics.Counter
	Misses metrics.Counter
	// Evictions counts evicted frames; DirtyWrites counts write-backs.
	Evictions   metrics.Counter
	DirtyWrites metrics.Counter
	// SnapshotShips counts copy-on-write snapshot requests that ran on an
	// owning worker's thread; SnapshotCleans is the subset whose hardened
	// copy also retired the frame's dirty bit (no mutation raced the
	// write-back). StampedEvictions counts stamped frames evicted because
	// no unstamped candidate was left (forced: stamped pages are a
	// worker's hot set and are skipped while alternatives exist).
	SnapshotShips    metrics.Counter
	SnapshotCleans   metrics.Counter
	StampedEvictions metrics.Counter
}

// shardCountFor sizes the shard fan-out: power-of-two up to 16, keeping
// at least 16 frames per shard so a skewed workload cannot starve one
// shard while others sit empty. Tiny pools (tests) collapse to a single
// shard and behave exactly like the unsharded original.
func shardCountFor(frames int) int {
	c := 1
	for c < 16 && frames/(c*2) >= 16 {
		c *= 2
	}
	return c
}

// NewPool creates a pool with n frames over disk. log may be nil when no
// WAL is attached (tests, read-only tools).
func NewPool(n int, disk Disk, log LogForcer) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		disk:   disk,
		frames: make([]*Frame, n),
		cleanq: make(chan page.ID, 256),
		dirtyq: make(chan page.ID, n),
	}
	p.SetLogForcer(log)
	nsh := shardCountFor(n)
	p.shards = make([]*shard, nsh)
	for i := range p.shards {
		p.shards[i] = &shard{table: make(map[page.ID]int, n/nsh+1)}
	}
	for i := range p.frames {
		sh := p.shards[i%nsh]
		f := &Frame{idx: len(sh.frames), pool: p}
		p.frames[i] = f
		sh.frames = append(sh.frames, f)
	}
	return p
}

// SetLogForcer swaps the write-ahead rule's log handle. nil detaches it
// (no WAL). Safe against concurrent write-backs: each write-back reads
// the handle once.
func (p *Pool) SetLogForcer(log LogForcer) {
	if log == nil {
		p.log.Store(nil)
		return
	}
	p.log.Store(&log)
}

// logForcer returns the current log handle, or nil when none is attached.
func (p *Pool) logForcer() LogForcer {
	if lp := p.log.Load(); lp != nil {
		return *lp
	}
	return nil
}

// SetStats wires contention accounting into every frame latch.
func (p *Pool) SetStats(cs *metrics.CriticalSectionStats) {
	p.cs = cs
	for _, f := range p.frames {
		f.Latch.Stats = cs
	}
}

// Stats returns the critical-section accounting wired by SetStats (nil
// when none): subsystems above the pool use it for sub-classified
// counters such as heap-read frame latches.
func (p *Pool) Stats() *metrics.CriticalSectionStats { return p.cs }

// MarkStamped records that a page carries an owner stamp. The storage
// layer calls it in lock-step with its own stamp registry (publish the
// stamp, then mark, both before the stamp's content verify takes the
// frame latch — writeBackLatched's decisive re-check depends on that
// order). Stamped pages are the ones whose live frame only the owning
// worker's thread may touch: the eviction policy avoids them and
// write-back routes through the copy-on-write snapshot protocol instead
// of the frame latch.
func (p *Pool) MarkStamped(id page.ID) { p.stamped.Store(id, struct{}{}) }

// UnmarkStamped records that a page's owner stamp was dropped.
func (p *Pool) UnmarkStamped(id page.ID) { p.stamped.Delete(id) }

// SetSnapshotterAsync wires the owner-coordinated snapshot ship (the
// DORA engine: it resolves the stamp to a partition worker and delivers
// the copy request through that worker's inbox). FlushAll uses it to
// overlap every stamped page's owner round-trip.
func (p *Pool) SetSnapshotterAsync(fn SnapshotterAsync) { p.snapshotterAsync.Store(&fn) }

func (p *Pool) isStamped(id page.ID) bool {
	_, ok := p.stamped.Load(id)
	return ok
}

// CleanRequests exposes the eviction path's dirty-stamped hints; the
// cleaner daemon drains it between sweeps.
func (p *Pool) CleanRequests() <-chan page.ID { return p.cleanq }

// NumFrames returns the pool capacity in pages.
func (p *Pool) NumFrames() int { return len(p.frames) }

// NumShards returns the latch-stripe fan-out (statistics).
func (p *Pool) NumShards() int { return len(p.shards) }

func (p *Pool) shardOf(id page.ID) *shard {
	return p.shards[int(uint64(id))%len(p.shards)]
}

// Fetch pins the frame holding page id, reading it from disk on a miss.
// The caller must Unpin it, and must latch Frame.Latch around access.
func (p *Pool) Fetch(id page.ID) (*Frame, error) {
	sh := p.shardOf(id)
	sh.mu.Lock()
	if idx, ok := sh.table[id]; ok {
		f := sh.frames[idx]
		f.pins.Add(1)
		f.ref.Store(true)
		sh.mu.Unlock()
		p.Hits.Inc()
		return f, nil
	}
	f, err := p.victimLocked(sh)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	// Install mapping before releasing the shard mutex so a concurrent
	// Fetch of the same id waits on the frame latch rather than
	// double-reading.
	f.id = id
	f.valid = true
	f.pins.Store(1)
	f.ref.Store(true)
	sh.table[id] = f.idx
	f.Latch.Lock()
	f.loading.Store(true)
	sh.mu.Unlock()
	p.Misses.Inc()
	err = p.disk.ReadPage(id, &f.Page)
	f.loading.Store(false)
	f.Latch.Unlock()
	if err != nil {
		sh.mu.Lock()
		delete(sh.table, id)
		f.valid = false
		f.pins.Add(-1)
		sh.mu.Unlock()
		return nil, err
	}
	return f, nil
}

// NewPage allocates a fresh page on disk and returns it pinned and
// initialized.
func (p *Pool) NewPage() (*Frame, error) {
	id, err := p.disk.Allocate()
	if err != nil {
		return nil, err
	}
	sh := p.shardOf(id)
	sh.mu.Lock()
	f, err := p.victimLocked(sh)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	f.id = id
	f.valid = true
	f.pins.Store(1)
	f.ref.Store(true)
	sh.table[id] = f.idx
	f.Latch.Lock()
	sh.mu.Unlock()
	f.Page.Init(id)
	f.setDirty()
	f.Latch.Unlock()
	return f, nil
}

// Unpin releases one pin. If dirty, the page is marked for write-back.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		f.setDirty()
	}
	if n := f.pins.Add(-1); n < 0 {
		panic(fmt.Sprintf("buffer: negative pin count on page %d", f.id))
	}
}

// victimLocked finds an unpinned frame in the shard (clock policy),
// flushing it if dirty. Called with sh.mu held; may briefly release it
// for I/O.
//
// Owner-stamped pages are a partition worker's hot set and only that
// worker's thread may touch their bytes, so the policy treats them
// specially: pass 0 skips them entirely; pass 1 (no unstamped candidate
// left) may evict a CLEAN stamped frame without byte access (counted in
// StampedEvictions — the disk already holds the image, the owner's next
// access re-reads it), while a DIRTY stamped frame is never evicted here
// — cleaning it needs the owner's thread, so the eviction path posts a
// hint for the cleaner daemon and keeps looking.
func (p *Pool) victimLocked(sh *shard) (*Frame, error) {
	for pass := 0; pass < 2; pass++ {
		for sweep := 0; sweep < 2*len(sh.frames); sweep++ {
			f := sh.frames[sh.hand]
			sh.hand = (sh.hand + 1) % len(sh.frames)
			if f.pins.Load() != 0 {
				continue
			}
			stamped := f.valid && p.isStamped(f.id)
			if stamped && pass == 0 {
				continue
			}
			if f.ref.Swap(false) && f.valid {
				continue
			}
			if !f.valid {
				return f, nil
			}
			if stamped {
				if f.dirty.Load() {
					select {
					case p.cleanq <- f.id:
					default:
					}
					continue
				}
				p.StampedEvictions.Inc()
				p.Evictions.Inc()
				delete(sh.table, f.id)
				f.valid = false
				return f, nil
			}
			// Evict. Pin it — but KEEP the mapping installed while the
			// dirty image flushes, so a concurrent Fetch HITS this frame
			// (pinning it, which cancels the eviction below) instead of
			// re-reading a possibly-stale image from disk under our
			// write-back.
			f.pins.Store(1)
			if f.dirty.Load() {
				sh.mu.Unlock()
				// Latched write-back only: eviction may run on a partition
				// worker's own thread (a Fetch miss mid-action), so it must
				// never park on a snapshot ship to another worker. If the
				// page was owner-stamped while we raced here, leave it for
				// the cleaner daemon and keep sweeping.
				err := p.writeBackLatched(f)
				sh.mu.Lock()
				if err != nil {
					if f.pins.Add(-1) != 0 {
						// A concurrent Fetch adopted the frame: it is live
						// again regardless of our flush outcome.
						continue
					}
					if err == errBecameStamped {
						select {
						case p.cleanq <- f.id:
						default:
						}
						continue
					}
					return nil, err
				}
				p.DirtyWrites.Inc()
				if f.pins.Add(-1) != 0 {
					continue // adopted by a concurrent Fetch: not a victim
				}
				// An adopter may have come AND gone during the flush
				// (fetch, mutate under the latch, unpin) — pins are back
				// to zero but its update lives only in this frame. Fetch
				// sets the ref bit and mutation re-dirties; either means
				// the frame is live again, not a victim.
				if f.dirty.Load() || f.ref.Load() {
					continue
				}
			} else {
				f.pins.Store(0)
			}
			p.Evictions.Inc()
			delete(sh.table, f.id)
			f.valid = false
			return f, nil
		}
	}
	return nil, ErrNoFrames
}

// errBecameStamped is an internal sentinel: the latched write-back found
// the page stamped under its latch and backed off to the snapshot path.
var errBecameStamped = errors.New("buffer: page became stamped during write-back")

// writeBack makes the frame's current mutations durable. Unstamped pages
// use the classic latched copy. Stamped pages must NOT be latched — their
// owner's mutations bypass the frame latch — so their image is obtained
// through the owner-coordinated copy-on-write protocol: a snapshot
// request ships to the owning worker, the owner copies the page at a
// quiescent point of its own thread, and the copy hardens here while the
// owner keeps mutating the live frame. The loop re-resolves when a stamp
// appears, moves, or disappears mid-flight (TryStamp racing an eviction,
// split/evacuate reassigning ownership, engine shutdown releasing
// stamps).
func (p *Pool) writeBack(f *Frame) error {
	for {
		if p.isStamped(f.id) {
			if snap := p.snapshotterAsync.Load(); snap != nil {
				type reply struct {
					ps PageSnapshot
					ok bool
				}
				ch := make(chan reply, 1)
				(*snap)(f.id, func(ps PageSnapshot, ok bool) { ch <- reply{ps, ok} })
				if r := <-ch; r.ok {
					p.SnapshotShips.Inc()
					return p.hardenSnapshot(r.ps)
				}
				// Stamp moved or the owner is mid-retirement: re-resolve.
				// During engine shutdown the stamp disappears right after
				// the workers drain, bounding this loop.
				runtime.Gosched()
				continue
			}
			// Stamps without a ship hook: direct owned sessions (tests,
			// recovery rigs). Their owner mutators are quiesced before
			// anything flushes, so the latched path below is safe.
		}
		err := p.writeBackLatched(f)
		if err == errBecameStamped {
			runtime.Gosched()
			continue
		}
		return err
	}
}

// writeBackLatched forces the WAL to the page LSN and writes the page
// image under the shared frame latch — sound for pages whose mutators
// all hold the exclusive latch (every unstamped page).
func (p *Pool) writeBackLatched(f *Frame) error {
	f.Latch.RLock()
	defer f.Latch.RUnlock()
	if p.isStamped(f.id) && p.snapshotterAsync.Load() != nil {
		// The page was owner-stamped between the caller's check and our
		// latch acquisition: its mutations no longer serialize on this
		// latch, so a latched copy could tear. Back off to the snapshot
		// path. Seeing "unstamped" here is decisive the other way:
		// TryStamp's content verify takes the latch exclusively, so a
		// stamp published before our RLock cannot have latch-free
		// mutations in flight while we hold it.
		return errBecameStamped
	}
	f.hardenMu.Lock()
	defer f.hardenMu.Unlock()
	// Under the shared latch no mutator is active, so the live image is
	// at least as new as any snapshot copy — never stale, no skip check.
	seqAt := f.seq.Load()
	if log := p.logForcer(); log != nil {
		if err := log.Force(f.Page.LSN()); err != nil {
			return err
		}
	}
	if err := p.disk.WritePage(f.id, &f.Page); err != nil {
		return err
	}
	if seqAt > f.hardened {
		f.hardened = seqAt
	}
	f.clearDirty()
	return nil
}

// hardenSnapshot makes an owner's copy durable — WAL first: the copy's
// image must not reach disk before the log records it reflects (up to
// its page LSN, which covers every commit LSN chained below it) are
// durable — then retires the frame's dirty bit if no mutation raced the
// write-back. The snapshot producer pinned the frame; the pin is
// released here, after the conditional clear, so the frame cannot be
// recycled (and its write seq reused for an unrelated page) in between.
//
// Hardens of one frame serialize on hardenMu, and a snapshot older than
// the newest hardened image is DROPPED: with concurrent cleaners (the
// engine's daemon, checkpoint FlushAll, embedder cleaners) a stale copy
// that lost the race must not overwrite a newer on-disk image — its
// finishClean would see a moved seq and leave dirty untouched, so the
// stale bytes could otherwise sit under a clean bit.
func (p *Pool) hardenSnapshot(s PageSnapshot) error {
	defer p.Unpin(s.Frame, false)
	s.Frame.hardenMu.Lock()
	defer s.Frame.hardenMu.Unlock()
	if s.Seq < s.Frame.hardened {
		return nil // a newer image already hardened; this copy is moot
	}
	if log := p.logForcer(); log != nil {
		if err := log.Force(s.Img.LSN()); err != nil {
			return err
		}
	}
	if err := p.disk.WritePage(s.Frame.id, s.Img); err != nil {
		return err
	}
	s.Frame.hardened = s.Seq
	p.finishClean(s.Frame, s.Seq)
	return nil
}

// finishClean conditionally clears dirty after a snapshot copy hardened.
// Owner mutations bump the write seq BEFORE touching bytes and mark
// dirty after; we clear dirty first and then re-check the seq. A
// mutation concurrent with the clear either bumped before our re-read
// (caught: the clear is undone) or after it — in which case its own
// MarkDirty is also ordered after our clear and the bit survives. Either
// way no mutation is left clean-but-unflushed.
func (p *Pool) finishClean(f *Frame, seqAt uint64) {
	if f.seq.Load() != seqAt {
		return
	}
	f.clearDirty()
	if f.seq.Load() != seqAt {
		f.setDirty()
		return
	}
	p.SnapshotCleans.Inc()
}

// FlushAll writes back every dirty frame (checkpoint support). Stamped
// dirty frames are hardened through the copy-on-write snapshot protocol,
// so a fuzzy checkpoint never latches a frame whose owner mutates
// latch-free. With a snapshotter wired, the ships PIPELINE: every
// stamped frame's copy request fans out up front, the latched write-backs
// of unstamped frames overlap the owner round-trips, and the copies
// harden from a completion queue as owners reply — a checkpoint pays one
// ship latency overall, not one per stamped page.
func (p *Pool) FlushAll() error {
	var frames []*Frame
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.valid && f.dirty.Load() {
				f.pins.Add(1)
				frames = append(frames, f)
			}
		}
		sh.mu.Unlock()
	}
	var first error
	record := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	type shipReply struct {
		f  *Frame
		ps PageSnapshot
		ok bool
	}
	var pending int
	var replies chan shipReply
	rest := frames
	if asnap := p.snapshotterAsync.Load(); asnap != nil {
		// Buffered to the fan-out size: an owner's done callback can never
		// block on this checkpoint, however slowly it drains.
		replies = make(chan shipReply, len(frames))
		rest = frames[:0]
		for _, f := range frames {
			if p.isStamped(f.id) {
				f := f
				(*asnap)(f.id, func(ps PageSnapshot, ok bool) {
					replies <- shipReply{f, ps, ok}
				})
				pending++
			} else {
				rest = append(rest, f)
			}
		}
	}
	for _, f := range rest {
		record(p.writeBack(f))
		f.pins.Add(-1)
	}
	for i := 0; i < pending; i++ {
		r := <-replies
		if r.ok {
			p.SnapshotShips.Inc()
			record(p.hardenSnapshot(r.ps))
		} else {
			// Stamp moved or vanished mid-ship: the synchronous path
			// re-resolves (new owner, latched fallback, or no-op).
			record(p.writeBack(r.f))
		}
		r.f.pins.Add(-1)
	}
	return first
}

// CleanSome writes back up to max dirty frames (all of them when max <=
// 0), returning how many it hardened — the cleaner daemon's unit of
// paced work. Unlike FlushAll it tolerates individual failures, moving
// on so one wedged page cannot starve the rest of a sweep; a rotating
// shard cursor keeps capped sweeps fair across shards.
func (p *Pool) CleanSome(max int) (int, error) {
	want := int(p.dirtyEst.Load())
	if want <= 0 && !p.dirtyScan.Load() {
		return 0, nil
	}
	var frames []*Frame
	if max > 0 && !p.dirtyScan.Swap(false) {
		// Fast path: the dirty-transition queue says WHERE the dirty
		// frames are — drain it instead of scanning the shards for a
		// few scattered frames. Each id is a hint: re-resolve and pin
		// through the shard table (the frame may have been recycled or
		// cleaned since).
	drain:
		for len(frames) < max {
			select {
			case pid := <-p.dirtyq:
				sh := p.shardOf(pid)
				sh.mu.Lock()
				if idx, ok := sh.table[pid]; ok {
					if f := sh.frames[idx]; f.valid && f.dirty.Load() {
						f.pins.Add(1)
						frames = append(frames, f)
					}
				}
				sh.mu.Unlock()
			default:
				break drain
			}
		}
	} else {
		// Scan path: a queue overflow dropped hints (or the caller
		// asked for everything) — sweep and collect EVERY known-dirty
		// frame, ignoring the batch cap: a frame whose hint was
		// dropped is otherwise invisible until eviction, so the rare
		// recovery pass must cover them all (the post-write re-enqueue
		// below restores the queue invariant for frames that stay
		// dirty). The dirty estimate still stops a mostly-clean sweep
		// early.
		max = want
		start := int(p.cleanCursor.Add(1)) % len(p.shards)
		for i := 0; i < len(p.shards) && len(frames) < max; i++ {
			sh := p.shards[(start+i)%len(p.shards)]
			sh.mu.Lock()
			for _, f := range sh.frames {
				if f.valid && f.dirty.Load() && len(frames) < max {
					f.pins.Add(1)
					frames = append(frames, f)
				}
			}
			sh.mu.Unlock()
		}
	}
	cleaned := 0
	var first error
	for _, f := range frames {
		if err := p.writeBack(f); err != nil {
			if first == nil {
				first = err
			}
		} else {
			cleaned++
		}
		if f.dirty.Load() {
			// Still dirty — a mutation raced the harden, or the write
			// failed. Keep the page visible to the next tick.
			select {
			case p.dirtyq <- f.id:
			default:
				p.dirtyScan.Store(true)
			}
		}
		f.pins.Add(-1)
	}
	return cleaned, first
}

// DirtyEstimate returns the pool's running dirty-frame estimate (the
// bound CleanSome sweeps under; monitoring).
func (p *Pool) DirtyEstimate() int64 { return p.dirtyEst.Load() }

// HitRate returns hits / (hits+misses), or 1 when no lookups happened.
func (p *Pool) HitRate() float64 {
	h, m := float64(p.Hits.Load()), float64(p.Misses.Load())
	if h+m == 0 {
		return 1
	}
	return h / (h + m)
}
