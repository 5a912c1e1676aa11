package buffer

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/page"
)

func TestNewPageAndFetch(t *testing.T) {
	p := NewPool(4, NewMemDisk(), nil)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	f.Latch.Lock()
	if _, err := f.Page.Insert([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	f.Latch.Unlock()
	p.Unpin(f, true)

	g, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("second fetch should hit the same frame")
	}
	g.Latch.RLock()
	b, err := g.Page.Get(0)
	if err != nil || string(b) != "hello" {
		t.Fatalf("Get: %q, %v", b, err)
	}
	g.Latch.RUnlock()
	p.Unpin(g, false)
	if p.Hits.Load() != 1 {
		t.Fatalf("hits = %d, want 1", p.Hits.Load())
	}
}

func TestEvictionWritesBack(t *testing.T) {
	disk := NewMemDisk()
	p := NewPool(2, disk, nil)
	var ids []page.ID
	for i := 0; i < 5; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Latch.Lock()
		if _, err := f.Page.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		f.Latch.Unlock()
		ids = append(ids, f.ID())
		p.Unpin(f, true)
	}
	// All five pages must be readable despite only 2 frames.
	for i, id := range ids {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch(%d): %v", id, err)
		}
		f.Latch.RLock()
		b, err := f.Page.Get(0)
		if err != nil || b[0] != byte(i) {
			t.Fatalf("page %d content: %v %v", id, b, err)
		}
		f.Latch.RUnlock()
		p.Unpin(f, false)
	}
	if p.Evictions.Load() == 0 {
		t.Fatal("expected evictions with 2 frames and 5 pages")
	}
}

func TestAllPinnedFails(t *testing.T) {
	p := NewPool(2, NewMemDisk(), nil)
	a, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewPage(); err != ErrNoFrames {
		t.Fatalf("want ErrNoFrames, got %v", err)
	}
	p.Unpin(a, false)
	p.Unpin(b, false)
	c, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(c, false)
}

// walProbe records the highest LSN forced.
type walProbe struct {
	mu    sync.Mutex
	maxed uint64
}

func (w *walProbe) Force(lsn uint64) error {
	w.mu.Lock()
	if lsn > w.maxed {
		w.maxed = lsn
	}
	w.mu.Unlock()
	return nil
}

func TestWALForcedBeforeWriteBack(t *testing.T) {
	probe := &walProbe{}
	p := NewPool(1, NewMemDisk(), probe)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.Lock()
	f.Page.SetLSN(777)
	f.Latch.Unlock()
	p.Unpin(f, true)
	// Allocating another page evicts the dirty one.
	g, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(g, false)
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if probe.maxed < 777 {
		t.Fatalf("WAL forced only to %d before write-back of page with LSN 777", probe.maxed)
	}
}

func TestFlushAllPersists(t *testing.T) {
	disk := NewMemDisk()
	p := NewPool(4, disk, nil)
	f, _ := p.NewPage()
	f.Latch.Lock()
	_, _ = f.Page.Insert([]byte("persist me"))
	f.Latch.Unlock()
	id := f.ID()
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Read through a *different* pool: must come from disk.
	p2 := NewPool(4, disk, nil)
	g, err := p2.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	g.Latch.RLock()
	b, err := g.Page.Get(0)
	g.Latch.RUnlock()
	p2.Unpin(g, false)
	if err != nil || string(b) != "persist me" {
		t.Fatalf("after flush: %q, %v", b, err)
	}
}

func TestFileDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2, d, nil)
	f, _ := p.NewPage()
	f.Latch.Lock()
	_, _ = f.Page.Insert([]byte("on disk"))
	f.Latch.Unlock()
	id := f.ID()
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 1 {
		t.Fatalf("NumPages = %d", d2.NumPages())
	}
	var pg page.Page
	if err := d2.ReadPage(id, &pg); err != nil {
		t.Fatal(err)
	}
	b, err := pg.Get(0)
	if err != nil || string(b) != "on disk" {
		t.Fatalf("file round trip: %q %v", b, err)
	}
}

func TestConcurrentFetch(t *testing.T) {
	disk := NewMemDisk()
	p := NewPool(8, disk, nil)
	var ids []page.ID
	for i := 0; i < 32; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Latch.Lock()
		_, _ = f.Page.Insert([]byte{byte(i)})
		f.Latch.Unlock()
		ids = append(ids, f.ID())
		p.Unpin(f, true)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(w*7+i)%len(ids)]
				f, err := p.Fetch(id)
				if err != nil {
					t.Errorf("Fetch(%d): %v", id, err)
					return
				}
				f.Latch.RLock()
				b, err := f.Page.Get(0)
				if err != nil || b[0] != byte(id) {
					t.Errorf("page %d: %v %v", id, b, err)
					f.Latch.RUnlock()
					p.Unpin(f, false)
					return
				}
				f.Latch.RUnlock()
				p.Unpin(f, false)
			}
		}(w)
	}
	wg.Wait()
}

func TestHitRate(t *testing.T) {
	p := NewPool(4, NewMemDisk(), nil)
	if p.HitRate() != 1 {
		t.Fatal("empty pool hit rate should be 1")
	}
	f, _ := p.NewPage()
	id := f.ID()
	p.Unpin(f, false)
	for i := 0; i < 9; i++ {
		g, _ := p.Fetch(id)
		p.Unpin(g, false)
	}
	if hr := p.HitRate(); hr != 1 {
		t.Fatalf("hit rate = %f, want 1 (page never evicted)", hr)
	}
}

// gate parks the first call made after arm until release is closed, and
// closes entered when that call arrives.
type gate struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func newGate() gate {
	return gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) pass() {
	if g.armed.Swap(false) {
		close(g.entered)
		<-g.release
	}
}

// gateDisk parks its first WritePage after arm.
type gateDisk struct {
	Disk
	gate
}

func (d *gateDisk) WritePage(id page.ID, src *page.Page) error {
	d.pass()
	return d.Disk.WritePage(id, src)
}

// gateLog parks its first Force after arm.
type gateLog struct {
	walProbe
	gate
}

func (l *gateLog) Force(lsn uint64) error {
	l.pass()
	return l.walProbe.Force(lsn)
}

// mappedFrames counts the frames that hold page id.
func mappedFrames(p *Pool, id page.ID) int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.id == id && f.state.Load() != frameFree {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestOneFramePerPage: a Fetch miss that drops the shard mutex to write
// its dirty victim back must not install a second frame for a page a
// concurrent Fetch installed meanwhile. The second Fetch runs inside the
// first one's victim write-back, parked on the disk; both must return
// the same frame.
func TestOneFramePerPage(t *testing.T) {
	disk := &gateDisk{Disk: NewMemDisk(), gate: newGate()}
	x, err := disk.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2, disk, nil)
	for i := 0; i < 2; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, true)
	}
	disk.armed.Store(true)
	first := make(chan *Frame, 1)
	go func() {
		f, err := p.Fetch(x)
		if err != nil {
			t.Error(err)
		}
		first <- f
	}()
	<-disk.entered
	g, err := p.Fetch(x)
	close(disk.release)
	f := <-first
	if err != nil {
		t.Fatal(err)
	}
	if f != g {
		t.Fatalf("two frames for page %d: %p and %p (%d mapped frames carry it)", x, f, g, mappedFrames(p, x))
	}
	if n := mappedFrames(p, x); n != 1 {
		t.Fatalf("%d frames carry page %d, want 1", n, x)
	}
}

// TestFetchCancelsEviction: a Fetch of a page whose dirty frame is being
// written back as a victim pins that frame and cancels the eviction, so
// an update made after the write-back stays in the pool.
func TestFetchCancelsEviction(t *testing.T) {
	disk := &gateDisk{Disk: NewMemDisk(), gate: newGate()}
	x, err := disk.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2, disk, nil)
	var frames [2]*Frame
	for i := range frames {
		if frames[i], err = p.NewPage(); err != nil {
			t.Fatal(err)
		}
		p.Unpin(frames[i], true)
	}
	fa := frames[0]
	a := fa.ID()
	disk.armed.Store(true)
	first := make(chan *Frame, 1)
	go func() {
		f, err := p.Fetch(x)
		if err != nil {
			t.Error(err)
		}
		first <- f
	}()
	<-disk.entered
	// The Fetch of x is writing a's frame back as its victim.
	g, err := p.Fetch(a)
	close(disk.release)
	if err == nil {
		g.Latch.Lock()
		_, err = g.Page.Insert([]byte("late"))
		g.Latch.Unlock()
		p.Unpin(g, true)
	}
	f := <-first
	if err != nil {
		t.Fatal(err)
	}
	if g != fa || f == fa {
		t.Fatalf("Fetch(a) got %p, Fetch(x) got %p; a's frame is %p", g, f, fa)
	}
	h, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(h, false)
	h.Latch.RLock()
	rec, err := h.Page.Get(0)
	h.Latch.RUnlock()
	if h != fa || !h.dirty.Load() || err != nil || string(rec) != "late" {
		t.Fatalf("page %d after the cancelled eviction: frame %p dirty %v record %q %v", a, h, h.dirty.Load(), rec, err)
	}
}

// TestWriteBackReleasesLatchDuringForce: a latched write-back forces the
// log without holding the frame latch, so a writer of the page does not
// wait out the log sync; the write-back then sees the moved page LSN,
// forces again and writes the newer image.
func TestWriteBackReleasesLatchDuringForce(t *testing.T) {
	log := &gateLog{gate: newGate()}
	disk := NewMemDisk()
	p := NewPool(2, disk, log)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	f.Latch.Lock()
	f.Page.SetLSN(10)
	f.Latch.Unlock()
	p.Unpin(f, true)

	log.armed.Store(true)
	flushed := make(chan error, 1)
	go func() { flushed <- p.FlushAll() }()
	<-log.entered
	// FlushAll waits in the force of LSN 10.
	g, err := p.Fetch(id)
	if err != nil {
		close(log.release)
		<-flushed
		t.Fatal(err)
	}
	locked := g.Latch.TryLock()
	if locked {
		g.Page.SetLSN(20)
		g.Latch.Unlock()
	}
	p.Unpin(g, locked)
	close(log.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if !locked {
		t.Fatal("the frame latch is held across the log force")
	}
	var img page.Page
	if err := disk.ReadPage(id, &img); err != nil {
		t.Fatal(err)
	}
	if img.LSN() != 20 || log.maxed < 20 {
		t.Fatalf("disk image LSN %d, log forced to %d; want both 20", img.LSN(), log.maxed)
	}
	if g.dirty.Load() {
		t.Fatal("frame still dirty after its newest image was written")
	}
}

// TestCheckedDiskRefusesStaleWrite: a write of an older page LSN over a
// newer stored image fails and is remembered; an equal or newer one
// passes.
func TestCheckedDiskRefusesStaleWrite(t *testing.T) {
	d := NewCheckedDisk(NewMemDisk())
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var img page.Page
	img.Init(id)
	for _, lsn := range []uint64{5, 5, 7} {
		img.SetLSN(lsn)
		if err := d.WritePage(id, &img); err != nil {
			t.Fatalf("write of LSN %d: %v", lsn, err)
		}
	}
	img.SetLSN(6)
	if d.WritePage(id, &img) == nil || d.Err() == nil {
		t.Fatal("stale write of LSN 6 over LSN 7 passed")
	}
	if err := d.ReadPage(id, &img); err != nil || img.LSN() != 7 {
		t.Fatalf("stored LSN %d (%v), want 7", img.LSN(), err)
	}
}

// TestCheckedDiskStorm: workers increment counter records over a pool
// far smaller than the pages they touch while the cleaner and FlushAll
// write back concurrently. Every write must move its page forward in
// time, and no increment may be lost.
func TestCheckedDiskStorm(t *testing.T) {
	const workers, pages, perWorker = 8, 32, 2000
	disk := NewCheckedDisk(NewMemDisk())
	p := NewPool(8, disk, nil)
	ids := make([]page.ID, pages)
	for i := range ids {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Latch.Lock()
		if _, err := f.Page.Insert(make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		f.Latch.Unlock()
		ids[i] = f.ID()
		p.Unpin(f, true)
	}
	cl := NewCleaner(p, CleanerConfig{Interval: time.Millisecond, Batch: 4})
	cl.Start()
	stop := make(chan struct{})
	flusher := make(chan struct{})
	go func() {
		defer close(flusher)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.FlushAll(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var lsn atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var rec [8]byte
			for i := 0; i < perWorker; {
				f, err := p.Fetch(ids[rng.Intn(pages)])
				if errors.Is(err, ErrNoFrames) {
					// Workers, the cleaner and FlushAll hold every frame.
					runtime.Gosched()
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				f.Latch.Lock()
				old, err := f.Page.Get(0)
				if err == nil {
					binary.LittleEndian.PutUint64(rec[:], binary.LittleEndian.Uint64(old)+1)
					err = f.Page.Update(0, rec[:])
					f.Page.SetLSN(lsn.Add(1))
				}
				f.Latch.Unlock()
				p.Unpin(f, true)
				if err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-flusher
	cl.Close()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := disk.Err(); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, id := range ids {
		var img page.Page
		if err := disk.ReadPage(id, &img); err != nil {
			t.Fatal(err)
		}
		rec, err := img.Get(0)
		if err != nil {
			t.Fatal(err)
		}
		sum += binary.LittleEndian.Uint64(rec)
	}
	if sum != workers*perWorker {
		t.Fatalf("counters on disk sum to %d, want %d", sum, workers*perWorker)
	}
}

// BenchmarkPoolFetch times one Fetch and Unpin: a hit, a miss whose
// victim is clean, and a miss whose victim is dirty and is written back
// first.
func BenchmarkPoolFetch(b *testing.B) {
	run := func(b *testing.B, frames, pages int, dirty bool) {
		p := NewPool(frames, NewMemDisk(), nil)
		ids := make([]page.ID, pages)
		for i := range ids {
			f, err := p.NewPage()
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = f.ID()
			p.Unpin(f, false)
		}
		if err := p.FlushAll(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := p.Fetch(ids[i%pages])
			if err != nil {
				b.Fatal(err)
			}
			p.Unpin(f, dirty)
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, 4, 1, false) })
	// Cycling over twice as many pages as frames misses every time.
	b.Run("miss-clean", func(b *testing.B) { run(b, 4, 8, false) })
	b.Run("miss-dirty", func(b *testing.B) { run(b, 4, 8, true) })
}
