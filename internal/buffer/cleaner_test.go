package buffer

import (
	"errors"
	"testing"
	"time"

	"dora/internal/page"
)

// newStampedPage allocates a page, writes one record, marks it stamped
// in the pool's registry, and unpins it dirty.
func newStampedPage(t *testing.T, p *Pool, payload byte) page.ID {
	t.Helper()
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.Lock()
	f.BumpWriteSeq()
	if _, err := f.Page.Insert([]byte{payload}); err != nil {
		t.Fatal(err)
	}
	f.Latch.Unlock()
	p.MarkStamped(f.ID())
	id := f.ID()
	p.Unpin(f, true)
	return id
}

// ownerSnapshotter mimics the owner thread: it copies the live frame
// directly and replies inline (the test is single-threaded, so "the
// owner's thread" is the test's own goroutine).
func ownerSnapshotter(p *Pool) SnapshotterAsync {
	return func(id page.ID, done func(PageSnapshot, bool)) {
		f, err := p.Fetch(id)
		if err != nil {
			done(PageSnapshot{}, false)
			return
		}
		img := new(page.Page)
		*img = f.Page
		done(PageSnapshot{Frame: f, Img: img, Seq: f.WriteSeq()}, true)
	}
}

// TestEvictionSkipsStampedFrames: while unstamped candidates exist, a
// stamped frame — clean or dirty — is never the victim.
func TestEvictionSkipsStampedFrames(t *testing.T) {
	disk := NewMemDisk()
	p := NewPool(4, disk, nil)

	stampedID := newStampedPage(t, p, 1)
	var unstamped []page.ID
	for i := 0; i < 3; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		unstamped = append(unstamped, f.ID())
		p.Unpin(f, true)
	}
	// Fill pressure: allocating more pages must evict unstamped frames
	// only (the stamped one is a worker's hot set).
	for i := 0; i < 3; i++ {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f, false)
	}
	if p.StampedEvictions.Load() != 0 {
		t.Fatalf("stamped evictions = %d with unstamped candidates available", p.StampedEvictions.Load())
	}
	// The stamped page must still be resident: fetching it is a hit.
	h0 := p.Hits.Load()
	f, err := p.Fetch(stampedID)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false)
	if p.Hits.Load() != h0+1 {
		t.Fatal("stamped page was evicted while unstamped candidates existed")
	}
	_ = unstamped
}

// TestForcedStampedEviction: when every unpinned frame is stamped, a
// CLEAN stamped frame is evicted (counted), while DIRTY stamped frames
// are left for the cleaner and the eviction posts a clean request.
func TestForcedStampedEviction(t *testing.T) {
	disk := NewMemDisk()
	p := NewPool(2, disk, nil)
	p.SetSnapshotterAsync(ownerSnapshotter(p))

	a := newStampedPage(t, p, 1)
	b := newStampedPage(t, p, 2)
	// Clean both through the snapshot path (the cleaner's job).
	if n, err := p.CleanSome(0); err != nil || n != 2 {
		t.Fatalf("CleanSome = %d, %v; want 2, nil", n, err)
	}
	if p.SnapshotShips.Load() != 2 || p.SnapshotCleans.Load() != 2 {
		t.Fatalf("ships=%d cleans=%d, want 2/2", p.SnapshotShips.Load(), p.SnapshotCleans.Load())
	}
	// Now the pool is all stamped-and-clean: allocation forces a stamped
	// eviction.
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, false)
	if p.StampedEvictions.Load() == 0 {
		t.Fatal("expected a forced stamped eviction")
	}
	// Evicted images must be intact on disk.
	for i, id := range []page.ID{a, b} {
		var img page.Page
		if err := disk.ReadPage(id, &img); err != nil {
			t.Fatal(err)
		}
		rec, err := img.Get(0)
		if err != nil || rec[0] != byte(i+1) {
			t.Fatalf("page %d on disk: %v %v", id, rec, err)
		}
	}
}

// TestDirtyStampedNotEvictable: a pool whose unpinned frames are all
// stamped AND dirty cannot evict — ErrNoFrames — and the clean-request
// channel carries the hint.
func TestDirtyStampedNotEvictable(t *testing.T) {
	p := NewPool(2, NewMemDisk(), nil)
	// No snapshotter: eviction must not latch these frames either way.
	_ = newStampedPage(t, p, 1)
	newStampedPage(t, p, 2)

	_, err := p.NewPage()
	if !errors.Is(err, ErrNoFrames) {
		t.Fatalf("NewPage err = %v, want ErrNoFrames", err)
	}
	select {
	case <-p.CleanRequests():
	default:
		t.Fatal("no clean request posted for a skipped dirty stamped frame")
	}
}

// TestFinishCleanConflict: a mutation between the snapshot copy and the
// hardened write-back must keep the frame dirty (the seq double-check).
func TestFinishCleanConflict(t *testing.T) {
	disk := NewMemDisk()
	p := NewPool(2, disk, nil)
	id := newStampedPage(t, p, 7)

	// Owner-side copy.
	f, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	img := new(page.Page)
	*img = f.Page
	seqAt := f.WriteSeq()

	// Owner mutates AFTER the copy (seq bump before bytes, like the heap).
	f.BumpWriteSeq()
	if _, err := f.Page.Insert([]byte{8}); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()

	// Harden the stale copy: dirty must survive.
	if err := p.harden(PageSnapshot{Frame: f, Img: img, Seq: seqAt}, false); err != nil {
		t.Fatal(err)
	}
	if !f.dirty.Load() {
		t.Fatal("dirty bit cleared although a mutation raced the snapshot")
	}
	if p.SnapshotCleans.Load() != 0 {
		t.Fatalf("snapshot cleans = %d, want 0", p.SnapshotCleans.Load())
	}
	// A second, up-to-date snapshot retires the dirty bit.
	g, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	img2 := new(page.Page)
	*img2 = g.Page
	if err := p.harden(PageSnapshot{Frame: g, Img: img2, Seq: g.WriteSeq()}, false); err != nil {
		t.Fatal(err)
	}
	if g.dirty.Load() {
		t.Fatal("dirty bit survived an up-to-date snapshot")
	}
}

// TestCleanerSweepsStampedPages: the paced daemon hardens stamped dirty
// frames through the snapshot ship without ever latching them.
func TestCleanerSweepsStampedPages(t *testing.T) {
	disk := NewMemDisk()
	p := NewPool(8, disk, nil)
	p.SetSnapshotterAsync(ownerSnapshotter(p))

	var ids []page.ID
	for i := 0; i < 4; i++ {
		ids = append(ids, newStampedPage(t, p, byte(i+1)))
	}
	cl := NewCleaner(p, CleanerConfig{Interval: time.Millisecond, Batch: 2})
	cl.Start()
	defer cl.Close()
	deadline := time.Now().Add(2 * time.Second)
	for cl.CleanedPages.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := cl.CleanedPages.Load(); got < 4 {
		t.Fatalf("cleaner hardened %d pages, want >= 4", got)
	}
	for i, id := range ids {
		var img page.Page
		if err := disk.ReadPage(id, &img); err != nil {
			t.Fatal(err)
		}
		rec, err := img.Get(0)
		if err != nil || rec[0] != byte(i+1) {
			t.Fatalf("page %d image on disk: %v %v", id, rec, err)
		}
	}
}
