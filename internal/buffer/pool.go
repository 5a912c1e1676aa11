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

// Frame states. A page has at most one frame: the shard table maps it
// to a frame that is loading, resident or evicting, and every state
// change happens under the shard mutex except loading->resident, an
// atomic store ordered after the disk read.
const (
	// frameFree holds no page and is not mapped.
	frameFree uint32 = iota
	// frameLoading is mapped while a Fetch miss reads the page image
	// under the exclusive frame latch.
	frameLoading
	// frameResident holds a mapped page.
	frameResident
	// frameEvicting is a dirty victim whose evictor writes it back with
	// the shard mutex dropped. It keeps its mapping: a Fetch hit pins it
	// and makes it resident again, which cancels the eviction.
	frameEvicting
)

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
	state atomic.Uint32
	pins  atomic.Int32
	dirty atomic.Bool
	// pool points back at the owning pool for dirty-transition
	// accounting (the Swap in setDirty/clearDirty makes each
	// clean<->dirty transition count exactly once).
	pool *Pool
	ref  atomic.Bool
	// seq is the frame's write sequence: heap record mutations bump it
	// immediately BEFORE touching page bytes (every latch-free one does;
	// recovery's latched redo does not). The
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
	// consumer re-validates through the shard table anyway.
	p.hintDirty(f.id)
}

func (f *Frame) clearDirty() {
	if f.dirty.Swap(false) && f.pool != nil {
		f.pool.dirtyEst.Add(-1)
	}
}

// Loading reports whether the frame's page image is still being read
// from disk. LATCH-FREE accessors (owner-thread reads and writes of
// stamped heap pages) must fall back to the latched path while it is
// true, or they could observe (or scribble over) a half-read image. The
// store that ends loading is ordered after the disk read, so a reader
// observing false sees the full image.
func (f *Frame) Loading() bool { return f.state.Load() == frameLoading }

// BumpWriteSeq advances the frame's write sequence. Mutators that may run
// latch-free call it immediately before modifying page bytes; the
// bump-BEFORE-mutate order is what makes finishClean's conditional
// dirty-clear sound — see that function. The latched write-back does not
// rely on it (recovery's latched redo does not bump).
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
// pinned by the producer; the write-back unpins it after the copy is on
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
// frame latch — writeLatched's decisive re-check depends on that
// order). Stamped pages are the ones whose live frame only the owning
// worker's thread may touch: the eviction policy avoids them and
// write-back routes through the copy-on-write snapshot protocol instead
// of the frame latch.
func (p *Pool) MarkStamped(id page.ID) { p.stamped.Store(id, struct{}{}) }

// UnmarkStamped records that a page's owner stamp was dropped.
func (p *Pool) UnmarkStamped(id page.ID) { p.stamped.Delete(id) }

// SetSnapshotterAsync wires the owner-coordinated snapshot ship (the
// DORA engine: it resolves the stamp to a partition worker and delivers
// the copy request through that worker's inbox). Every write-back set
// ships all its stamped pages at once and overlaps their owner
// round-trips.
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
	f := sh.pinLocked(id)
	if f == nil {
		var err error
		if f, err = p.victimLocked(sh); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		// victimLocked may have dropped the mutex to write a victim back,
		// and a concurrent Fetch of id may have installed the page
		// meanwhile. Take its frame and leave the victim free.
		if g := sh.pinLocked(id); g != nil {
			f = g
		}
	}
	if f.state.Load() != frameFree { // mapped: a hit
		sh.mu.Unlock()
		p.Hits.Inc()
		return f, nil
	}
	// Install the mapping before releasing the shard mutex so a
	// concurrent Fetch of the same id waits on the frame latch rather
	// than double-reading.
	sh.installLocked(f, id, frameLoading)
	f.Latch.Lock()
	sh.mu.Unlock()
	p.Misses.Inc()
	if err := p.disk.ReadPage(id, &f.Page); err != nil {
		f.Latch.Unlock()
		sh.mu.Lock()
		delete(sh.table, id)
		f.state.Store(frameFree)
		f.pins.Add(-1)
		sh.mu.Unlock()
		return nil, err
	}
	f.state.Store(frameResident)
	f.Latch.Unlock()
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
	// The id is fresh, so no concurrent Fetch can have installed it.
	sh.installLocked(f, id, frameResident)
	f.Latch.Lock()
	sh.mu.Unlock()
	f.Page.Init(id)
	f.setDirty()
	f.Latch.Unlock()
	return f, nil
}

// pinLocked pins the frame mapped to id (a hit), or returns nil. A hit on
// an evicting frame makes it resident again, cancelling the eviction.
func (sh *shard) pinLocked(id page.ID) *Frame {
	idx, ok := sh.table[id]
	if !ok {
		return nil
	}
	f := sh.frames[idx]
	f.pins.Add(1)
	f.ref.Store(true)
	if f.state.Load() == frameEvicting {
		f.state.Store(frameResident)
	}
	return f
}

// installLocked maps id to the free frame f, pinned once.
func (sh *shard) installLocked(f *Frame, id page.ID, state uint32) {
	f.id = id
	f.state.Store(state)
	f.pins.Store(1)
	f.ref.Store(true)
	sh.table[id] = f.idx
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

// victimLocked finds a free frame in the shard (clock policy), evicting
// an unpinned resident one and writing it back first if dirty. Called
// with sh.mu held; may release it for the write-back.
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
			// Loading and evicting frames are pinned by their loader or
			// evictor, so an unpinned frame is free or resident.
			if f.pins.Load() != 0 {
				continue
			}
			if f.state.Load() == frameFree {
				return f, nil
			}
			stamped := p.isStamped(f.id)
			if stamped && pass == 0 || f.ref.Swap(false) {
				continue
			}
			if stamped && f.dirty.Load() {
				p.hintClean(f.id)
				continue
			}
			if stamped {
				p.StampedEvictions.Inc()
			} else if f.dirty.Load() {
				// Latched write-back only: eviction may run on a partition
				// worker's own thread (a Fetch miss mid-action), so it must
				// never park on a snapshot ship to another worker. The
				// evictor's pin keeps other evictors off the frame.
				f.pins.Add(1)
				f.state.Store(frameEvicting)
				sh.mu.Unlock()
				err := p.writeLatched(f)
				sh.mu.Lock()
				if err == nil {
					p.DirtyWrites.Inc()
				}
				adopted := f.pins.Add(-1) != 0 || f.state.Load() != frameEvicting
				if adopted || err != nil {
					f.state.Store(frameResident)
					if err == errBecameStamped {
						// Stamped while we raced here: the cleaner's job.
						p.hintClean(f.id)
					} else if err != nil && !adopted {
						return nil, err
					}
					continue
				}
			}
			p.Evictions.Inc()
			delete(sh.table, f.id)
			f.state.Store(frameFree)
			return f, nil
		}
	}
	return nil, ErrNoFrames
}

// hintClean asks the cleaner daemon to harden a dirty stamped page the
// eviction path may not clean itself. A full queue drops the hint (the
// cleaner's sweep finds the page anyway).
func (p *Pool) hintClean(id page.ID) {
	select {
	case p.cleanq <- id:
	default:
	}
}

// hintDirty records where a dirty page is for CleanSome. A full queue
// drops the hint and flags one fallback scan instead.
func (p *Pool) hintDirty(id page.ID) {
	select {
	case p.dirtyq <- id:
	default:
		p.dirtyScan.Store(true)
	}
}

// errBecameStamped is an internal sentinel: the latched write-back found
// the page stamped under its latch and backed off to the snapshot path.
var errBecameStamped = errors.New("buffer: page became stamped during write-back")

// writeBackFrames makes the mutations of a set of frames durable and
// releases the caller's pin on each; it is the one write-back routine
// behind FlushAll, CleanSome and the cleaner's hints. It returns how
// many frames it hardened and the first error, and moves on past a
// failed frame so one wedged page cannot starve the rest.
//
// Unstamped pages take the latched write. Stamped pages must NOT be
// latched — their owner's mutations bypass the frame latch — so their
// image comes through the owner-coordinated copy-on-write protocol: a
// snapshot request ships to the owning worker, the owner copies the page
// at a quiescent point of its own thread, and the copy hardens here
// while the owner keeps mutating the live frame. The ships PIPELINE:
// every stamped frame's request fans out before the first reply is
// awaited, and the latched writes overlap the owner round-trips, so a
// set pays one ship latency, not one per stamped page. A frame whose
// stamp appeared, moved or vanished mid-flight (TryStamp racing the
// write-back, a split or evacuate reassigning ownership, engine shutdown
// releasing stamps) is re-resolved in a next round.
func (p *Pool) writeBackFrames(frames []*Frame) (int, error) {
	type shipReply struct {
		f  *Frame
		ps PageSnapshot
		ok bool
	}
	var replies chan shipReply
	cleaned := 0
	var first error
	done := func(f *Frame, err error) {
		if err == nil {
			cleaned++
		} else if first == nil {
			first = err
		}
		if f.dirty.Load() {
			// A mutation raced the harden, or the write failed: keep the
			// page visible to the next CleanSome.
			p.hintDirty(f.id)
		}
		f.pins.Add(-1)
	}
	for len(frames) > 0 {
		asnap := p.snapshotterAsync.Load()
		retry := frames[:0]
		pending := 0
		for _, f := range frames {
			if asnap != nil && p.isStamped(f.id) {
				if replies == nil {
					// Buffered to the set size: an owner's done callback
					// must never block on this caller.
					replies = make(chan shipReply, len(frames))
				}
				q := replies
				(*asnap)(f.id, func(ps PageSnapshot, ok bool) { q <- shipReply{f, ps, ok} })
				pending++
			} else if err := p.writeLatched(f); err == errBecameStamped {
				retry = append(retry, f)
			} else {
				// Stamps without a ship hook come from direct owned
				// sessions (tests, recovery rigs), whose owner mutators
				// are quiesced before anything flushes: latching is safe.
				done(f, err)
			}
		}
		for ; pending > 0; pending-- {
			r := <-replies
			if !r.ok {
				retry = append(retry, r.f)
				continue
			}
			p.SnapshotShips.Inc()
			err := p.harden(r.ps, false)
			// The producer's pin goes only after the conditional clear.
			p.Unpin(r.ps.Frame, false)
			done(r.f, err)
		}
		if len(retry) > 0 {
			// During engine shutdown the stamps disappear right after the
			// workers drain, bounding the rounds.
			runtime.Gosched()
		}
		frames = retry
	}
	return cleaned, first
}

// writeLatched hardens the live image of an unstamped frame. Its
// mutators all hold the exclusive frame latch, so the image is
// consistent under the shared latch — but the latch is not held across
// the log force, or every writer of the page would wait out a log sync:
// the force runs unlatched to the LSN read under the latch, and the loop
// re-checks the LSN after re-taking it.
func (p *Pool) writeLatched(f *Frame) error {
	log := p.logForcer()
	var forced uint64
	f.Latch.RLock()
	for {
		if p.isStamped(f.id) && p.snapshotterAsync.Load() != nil {
			// The page was owner-stamped: its mutations no longer
			// serialize on this latch, so a latched write could tear.
			// Seeing "unstamped" here is decisive the other way:
			// TryStamp's content verify takes the latch exclusively, so a
			// stamp published before our RLock cannot have latch-free
			// mutations in flight while we hold it.
			f.Latch.RUnlock()
			return errBecameStamped
		}
		lsn := f.Page.LSN()
		if log == nil || lsn <= forced {
			break
		}
		f.Latch.RUnlock()
		if err := log.Force(lsn); err != nil {
			return err
		}
		forced = lsn
		f.Latch.RLock()
	}
	defer f.Latch.RUnlock()
	return p.harden(PageSnapshot{Frame: f, Img: &f.Page, Seq: f.seq.Load()}, true)
}

// harden is the step every write-back ends in: it writes s.Img, the
// image of s.Frame at write sequence s.Seq, and retires the dirty bit.
// live says s.Img is the frame's own page under the caller's shared
// latch, with the log already forced to its LSN: no mutator is active,
// so the image is at least as new as any snapshot copy and the write
// clears dirty outright. Otherwise s.Img is an owner's snapshot copy.
// Its write is WAL first — the copy must not reach disk before the log
// records it reflects (up to its page LSN, which covers every commit LSN
// chained below it) are durable — and finishClean retires dirty only if
// no mutation raced the write-back.
//
// Hardens of one frame serialize on hardenMu, and a snapshot older than
// the newest hardened image is DROPPED: with concurrent cleaners (the
// engine's daemon, checkpoint FlushAll, embedder cleaners) a stale copy
// that lost the race must not overwrite a newer on-disk image — its
// finishClean would see a moved seq and leave dirty untouched, so the
// stale bytes could otherwise sit under a clean bit.
func (p *Pool) harden(s PageSnapshot, live bool) error {
	f := s.Frame
	f.hardenMu.Lock()
	defer f.hardenMu.Unlock()
	if !live {
		if s.Seq < f.hardened {
			return nil // a newer image already hardened; this copy is moot
		}
		if log := p.logForcer(); log != nil {
			if err := log.Force(s.Img.LSN()); err != nil {
				return err
			}
		}
	}
	if err := p.disk.WritePage(f.id, s.Img); err != nil {
		return err
	}
	if s.Seq > f.hardened {
		f.hardened = s.Seq
	}
	if live {
		f.clearDirty()
	} else {
		p.finishClean(f, s.Seq)
	}
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

// pinDirtyLocked pins f for a write-back if it holds a dirty page. Called
// with f's shard mutex held.
func pinDirtyLocked(f *Frame) bool {
	if s := f.state.Load(); (s == frameResident || s == frameEvicting) && f.dirty.Load() {
		f.pins.Add(1)
		return true
	}
	return false
}

// pinHinted drains page-id hints from q until it holds max frames or q is
// empty, pinning each hinted page that is still resident and dirty (the
// frame may have been recycled or cleaned since the hint).
func (p *Pool) pinHinted(q chan page.ID, max int) []*Frame {
	var frames []*Frame
	for len(frames) < max {
		select {
		case id := <-q:
			sh := p.shardOf(id)
			sh.mu.Lock()
			if idx, ok := sh.table[id]; ok && pinDirtyLocked(sh.frames[idx]) {
				frames = append(frames, sh.frames[idx])
			}
			sh.mu.Unlock()
		default:
			return frames
		}
	}
	return frames
}

// pinDirty sweeps the shards from start, pinning up to max dirty frames
// (all of them when max <= 0).
func (p *Pool) pinDirty(start, max int) []*Frame {
	if max <= 0 {
		max = len(p.frames)
	}
	var frames []*Frame
	for i := 0; i < len(p.shards) && len(frames) < max; i++ {
		sh := p.shards[(start+i)%len(p.shards)]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if len(frames) < max && pinDirtyLocked(f) {
				frames = append(frames, f)
			}
		}
		sh.mu.Unlock()
	}
	return frames
}

// FlushAll writes back every dirty frame (checkpoint support). Stamped
// dirty frames are hardened through the copy-on-write snapshot protocol,
// so a fuzzy checkpoint never latches a frame whose owner mutates
// latch-free.
func (p *Pool) FlushAll() error {
	_, err := p.writeBackFrames(p.pinDirty(0, 0))
	return err
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
	if max > 0 && !p.dirtyScan.Swap(false) {
		// Fast path: the dirty-transition queue says WHERE the dirty
		// frames are — drain it instead of scanning the shards for a
		// few scattered frames.
		return p.writeBackFrames(p.pinHinted(p.dirtyq, max))
	}
	// Scan path: a queue overflow dropped hints (or the caller asked for
	// everything) — sweep and collect EVERY known-dirty frame, ignoring
	// the batch cap: a frame whose hint was dropped is otherwise
	// invisible until eviction, so the rare recovery pass must cover them
	// all (the write-back re-hints frames that stay dirty, restoring the
	// queue invariant). The dirty estimate still stops a mostly-clean
	// sweep early.
	start := int(p.cleanCursor.Add(1)) % len(p.shards)
	return p.writeBackFrames(p.pinDirty(start, want))
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
