package clog

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dora/internal/metrics"
	"dora/internal/wal"
)

func mk(t *testing.T) (*Log, *wal.MemStore) {
	t.Helper()
	store := wal.NewMemStore()
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, store
}

func TestAppendScanRoundTrip(t *testing.T) {
	l, _ := mk(t)
	want := []*wal.Record{
		{Kind: wal.KInsert, TxnID: 1, Table: 3, Page: 7, Slot: 2, Key: 99, Redo: []byte("new")},
		{Kind: wal.KUpdate, TxnID: 1, Table: 3, Page: 7, Slot: 2, Key: 99, Redo: []byte("after"), Undo: []byte("before")},
		{Kind: wal.KCLR, Sub: wal.KUpdate, TxnID: 2, UndoNext: 5, Redo: []byte("comp")},
		{Kind: wal.KCommit, TxnID: 1},
		{Kind: wal.KEnd, TxnID: 1},
	}
	for _, r := range want {
		r.PrevLSN = 11
		l.Append(r)
	}
	var got []*wal.Record
	if err := l.Scan(func(r *wal.Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Kind != w.Kind || g.Sub != w.Sub || g.TxnID != w.TxnID ||
			g.Table != w.Table || g.Page != w.Page || g.Slot != w.Slot ||
			g.Key != w.Key || g.UndoNext != w.UndoNext || g.PrevLSN != 11 ||
			g.LSN != w.LSN {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, g, w)
		}
		if string(g.Redo) != string(w.Redo) || string(g.Undo) != string(w.Undo) {
			t.Fatalf("record %d images mismatch", i)
		}
	}
}

func TestStreamMatchesLegacyFormat(t *testing.T) {
	// clog's stream is the wal format: every record decodes through
	// wal.ScanBytes back to the fields it was appended with, at the LSN
	// Append returned, and each frame is the record's wal.EncodeInto
	// image byte for byte (the encoder recovery's tools are tested
	// against).
	want := []*wal.Record{
		{Kind: wal.KInsert, TxnID: 7, Table: 1, Page: 2, Slot: 3, Key: 4, Redo: []byte("abc")},
		{Kind: wal.KUpdate, TxnID: 7, PrevLSN: 8, Table: 1, Page: 2, Slot: 3, Key: 4, Off: 1, Redo: []byte("x"), Undo: []byte("b")},
		{Kind: wal.KCommit, TxnID: 7, PrevLSN: 8},
		{Kind: wal.KEnd, TxnID: 7, PrevLSN: 8},
	}
	store := wal.NewMemStore()
	cl, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		cl.Append(r)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := store.Contents()
	var got []*wal.Record
	if err := wal.ScanBytes(raw, func(r *wal.Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.LSN != w.LSN || g.Kind != w.Kind || g.Sub != w.Sub || g.TxnID != w.TxnID ||
			g.PrevLSN != w.PrevLSN || g.Table != w.Table || g.Page != w.Page || g.Slot != w.Slot ||
			g.Key != w.Key || g.Off != w.Off || string(g.Redo) != string(w.Redo) || string(g.Undo) != string(w.Undo) {
			t.Fatalf("record %d decodes to %+v, appended %+v", i, g, w)
		}
		fr := make([]byte, wal.EncodedSize(w))
		wal.EncodeInto(fr, w)
		if off := int(w.LSN); string(raw[off:off+len(fr)]) != string(fr) {
			t.Fatalf("record %d frame differs from its EncodeInto image", i)
		}
	}
}

func TestConcurrentAppendsConsolidate(t *testing.T) {
	l, _ := mk(t)
	const writers, per = 16, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(&wal.Record{Kind: wal.KUpdate, TxnID: uint64(w + 1), Key: int64(i), Redo: []byte("payload")})
			}
		}(w)
	}
	wg.Wait()
	n := 0
	seen := map[wal.LSN]bool{}
	perTxn := map[uint64]int{}
	if err := l.Scan(func(r *wal.Record) error {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
		perTxn[r.TxnID]++
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != writers*per {
		t.Fatalf("scanned %d, want %d", n, writers*per)
	}
	for w := 1; w <= writers; w++ {
		if perTxn[uint64(w)] != per {
			t.Fatalf("writer %d: %d records, want %d", w, perTxn[uint64(w)], per)
		}
	}
	st := l.Stats()
	if st.Groups > st.Appends {
		t.Fatalf("more groups (%d) than appends (%d)", st.Groups, st.Appends)
	}
	if st.Consolidated != st.Appends-st.Groups {
		t.Fatalf("consolidated %d, want %d", st.Consolidated, st.Appends-st.Groups)
	}
}

func TestForceAsyncCompletesInLSNOrderHorizon(t *testing.T) {
	l, _ := mk(t)
	var mu sync.Mutex
	var order []wal.LSN
	var wg sync.WaitGroup
	var lsns []wal.LSN
	for i := 0; i < 8; i++ {
		lsns = append(lsns, l.Append(&wal.Record{Kind: wal.KCommit, TxnID: uint64(i + 1)}))
	}
	for _, lsn := range lsns {
		lsn := lsn
		wg.Add(1)
		l.ForceAsync(lsn, wal.WaiterFunc(func(err error) {
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			order = append(order, lsn)
			mu.Unlock()
			wg.Done()
		}))
	}
	wg.Wait()
	if len(order) != len(lsns) {
		t.Fatalf("completed %d forces, want %d", len(order), len(lsns))
	}
	for _, lsn := range lsns {
		if l.Durable() <= lsn {
			t.Fatalf("LSN %d not durable after callback (durable=%d)", lsn, l.Durable())
		}
	}
}

func TestForceAfterCloseErrors(t *testing.T) {
	store := wal.NewMemStore()
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn := l.Append(&wal.Record{Kind: wal.KCommit, TxnID: 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Already-durable forces still succeed (idempotence)...
	if err := l.Force(lsn); err != nil {
		t.Fatalf("force of durable LSN after close: %v", err)
	}
	// ...but a force beyond the hardened horizon reports the closed log.
	if err := l.Force(lsn + 1<<20); !errors.Is(err, ErrClosed) {
		t.Fatalf("force past horizon after close: %v, want ErrClosed", err)
	}
}

func TestCrashCopyKeepsOnlySyncedGroups(t *testing.T) {
	store := wal.NewMemStore()
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := l.Append(&wal.Record{Kind: wal.KInsert, TxnID: 1, Redo: []byte("durable")})
	if err := l.Force(a); err != nil {
		t.Fatal(err)
	}
	crashed := store.CrashCopy()
	_ = l.Close()
	l2, err := New(crashed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []*wal.Record
	if err := l2.Scan(func(r *wal.Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Redo) != "durable" {
		t.Fatalf("after crash: %d records", len(got))
	}
}

func TestReopenAcrossImplementations(t *testing.T) {
	// A reopened clog continues the stream it finds: its LSNs pick up
	// after the existing records, and a scan sees both generations.
	store := wal.NewMemStore()
	first, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn1 := first.Append(&wal.Record{Kind: wal.KCommit, TxnID: 1})
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	cl, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn2 := cl.Append(&wal.Record{Kind: wal.KCommit, TxnID: 2})
	if lsn2 <= lsn1 {
		t.Fatalf("reopened clog reused LSN space: %d <= %d", lsn2, lsn1)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	var txns []uint64
	if err := back.Scan(func(r *wal.Record) error { txns = append(txns, r.TxnID); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(txns) != 2 || txns[0] != 1 || txns[1] != 2 {
		t.Fatalf("scanned transactions %v across reopens, want [1 2]", txns)
	}
}

// produceStream builds a clog stream of n records and returns its raw
// bytes (for the robustness scans below).
func produceStream(t *testing.T, n int) []byte {
	t.Helper()
	store := wal.NewMemStore()
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				l.Append(&wal.Record{Kind: wal.KUpdate, TxnID: uint64(w + 1), Key: int64(i), Redo: []byte("robust")})
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := store.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestTornTailTruncatedOnClogStream(t *testing.T) {
	raw := produceStream(t, 40)
	full := 0
	if err := wal.ScanBytes(raw, func(r *wal.Record) error { full++; return nil }); err != nil {
		t.Fatal(err)
	}
	if full != 40 {
		t.Fatalf("full scan: %d records, want 40", full)
	}
	// Cut the final record in half: the scan must stop cleanly before it.
	torn := raw[:len(raw)-20]
	n := 0
	if err := wal.ScanBytes(torn, func(r *wal.Record) error { n++; return nil }); err != nil {
		t.Fatalf("scan of torn clog stream: %v", err)
	}
	if n != full-1 {
		t.Fatalf("torn scan delivered %d records, want %d", n, full-1)
	}
}

func TestCorruptRecordRejectedOnClogStream(t *testing.T) {
	raw := produceStream(t, 40)
	var offsets []int
	if err := wal.ScanBytes(raw, func(r *wal.Record) error {
		offsets = append(offsets, int(r.LSN))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Flip payload bytes of a mid-stream record: its CRC no longer
	// matches, so the scan must reject it (and everything after — the
	// stream is not trustworthy past a corrupt record).
	mid := offsets[len(offsets)/2]
	raw[mid+12] ^= 0xFF
	n := 0
	if err := wal.ScanBytes(raw, func(r *wal.Record) error {
		if int(r.LSN) >= mid {
			t.Fatalf("corrupt record at %d delivered to scan", mid)
		}
		n++
		return nil
	}); err != nil {
		t.Fatalf("scan of corrupted stream: %v", err)
	}
	if n != len(offsets)/2 {
		t.Fatalf("delivered %d records before corruption, want %d", n, len(offsets)/2)
	}
}

func TestCorruptLengthFieldRejected(t *testing.T) {
	raw := produceStream(t, 8)
	var offsets []int
	if err := wal.ScanBytes(raw, func(r *wal.Record) error {
		offsets = append(offsets, int(r.LSN))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A wildly wrong frame length must terminate the scan, not crash it.
	mid := offsets[len(offsets)/2]
	binary.LittleEndian.PutUint32(raw[mid:], 0xFFFFFF00)
	n := 0
	if err := wal.ScanBytes(raw, func(r *wal.Record) error { n++; return nil }); err != nil {
		t.Fatalf("scan with corrupt length: %v", err)
	}
	if n != len(offsets)/2 {
		t.Fatalf("delivered %d records, want %d", n, len(offsets)/2)
	}
}

// failStore fails every Write after the header, simulating a dead log
// device.
type failStore struct {
	*wal.MemStore
	fail atomic.Bool
}

func (s *failStore) Write(b []byte) error {
	if s.fail.Load() {
		return errors.New("device failure")
	}
	return s.MemStore.Write(b)
}

func TestStoreFailureIsStickyAndFreezesDurable(t *testing.T) {
	store := &failStore{MemStore: wal.NewMemStore()}
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := l.Durable()
	store.fail.Store(true)
	lsn := l.Append(&wal.Record{Kind: wal.KCommit, TxnID: 1})
	if err := l.Force(lsn); err == nil {
		t.Fatal("force over failing store must error")
	}
	// The log is dead: later forces keep failing and the durability
	// horizon must not advance past the lost batch, even for records
	// appended afterwards.
	lsn2 := l.Append(&wal.Record{Kind: wal.KCommit, TxnID: 2})
	if err := l.Force(lsn2); err == nil {
		t.Fatal("force after sticky failure must error")
	}
	if d := l.Durable(); d != before {
		t.Fatalf("durable advanced from %d to %d over a dead store", before, d)
	}
	if err := l.Close(); err == nil {
		t.Fatal("close must surface the sticky error")
	}
}

func TestBackpressureBoundsPending(t *testing.T) {
	// A slow store must not let reserved-but-unflushed bytes grow without
	// bound; appenders throttle on the room condition instead. The bound
	// holds by construction (an extent is admitted under the tail mutex
	// only if it fits), so not even the appends in flight may push
	// pending past maxPending.
	store := wal.NewMemStore()
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	big := make([]byte, 64<<10)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				l.Append(&wal.Record{Kind: wal.KUpdate, TxnID: 1, Redo: big})
				if p := l.pending.Load(); p > maxPending {
					t.Errorf("pending %d exceeded bound %d", p, maxPending)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestOversizedExtentWaitsForEmptyPipeline(t *testing.T) {
	// A record larger than maxPending is admitted only into an empty
	// pipeline. Here the small record before it is complete with nothing
	// outstanding to wake the flush daemon: the waiting reservation must
	// wake it itself, or the append never returns.
	l, _ := mk(t)
	l.Append(&wal.Record{Kind: wal.KCommit, TxnID: 1})
	done := make(chan error, 1)
	go func() {
		lsn := l.Append(&wal.Record{Kind: wal.KUpdate, TxnID: 2, Redo: make([]byte, maxPending)})
		done <- l.Force(lsn)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oversized append never admitted")
	}
}

// slowSyncStore simulates a slow log device so pending bytes pile up.
type slowSyncStore struct {
	*wal.MemStore
	delay time.Duration
}

func (s *slowSyncStore) Sync() error {
	time.Sleep(s.delay)
	return s.MemStore.Sync()
}

func TestCommitCallbacksSurviveBackpressure(t *testing.T) {
	// A durability callback that appends (the storage manager's commit
	// completions no longer do, but any caller may) must not wedge the
	// flush pipeline under backpressure (pending >= maxPending on a slow
	// device) — the daemon would otherwise be waiting, inside the
	// callback, for a flush only it can perform.
	store := &slowSyncStore{MemStore: wal.NewMemStore(), delay: 2 * time.Millisecond}
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 128<<10)
	const writers, per = 4, 40 // 4*40*128KB = 20MB >> maxPending
	var wg, cbs sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn := l.Append(&wal.Record{Kind: wal.KUpdate, TxnID: uint64(w + 1), Redo: big})
				cbs.Add(1)
				l.ForceAsync(lsn, wal.WaiterFunc(func(error) {
					l.Append(&wal.Record{Kind: wal.KEnd, TxnID: uint64(w + 1)})
					cbs.Done()
				}))
			}
		}(w)
	}
	wg.Wait()
	cbs.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalSectionCountsGroupsNotAppends(t *testing.T) {
	cs := &metrics.CriticalSectionStats{}
	store := wal.NewMemStore()
	l, err := New(store, cs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Append(&wal.Record{Kind: wal.KUpdate, TxnID: uint64(w + 1), Key: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	snap := cs.Snapshot()
	st := l.Stats()
	if snap.Log != st.Groups {
		t.Fatalf("cs.Log = %d, want one entry per consolidated group (%d)", snap.Log, st.Groups)
	}
	if st.Appends != 1600 {
		t.Fatalf("appends = %d, want 1600", st.Appends)
	}
}

// TestForceAllocs: forcing an already durable LSN allocates nothing and
// still counts one force and one grouped commit; a waiting force
// allocates at most its wake-up channel.
func TestForceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	l, _ := mk(t)
	lsn := l.Append(&wal.Record{Kind: wal.KCommit, TxnID: 1})
	if err := l.Force(lsn); err != nil {
		t.Fatal(err)
	}
	forces, grouped := l.Forces.Load(), l.GroupedCommits.Load()
	durable := testing.AllocsPerRun(100, func() {
		if err := l.Force(lsn); err != nil {
			t.Fatal(err)
		}
	})
	if durable != 0 {
		t.Fatalf("durable Force: %.1f allocs, want 0", durable)
	}
	// AllocsPerRun makes one warm-up call on top of its runs.
	if df, dg := l.Forces.Load()-forces, l.GroupedCommits.Load()-grouped; df != 101 || dg != 101 {
		t.Fatalf("durable forces counted %d forces, %d grouped, want 101/101", df, dg)
	}
	rec := &wal.Record{Kind: wal.KCommit, TxnID: 2}
	waiting := testing.AllocsPerRun(100, func() {
		if err := l.Force(l.Append(rec)); err != nil {
			t.Fatal(err)
		}
	})
	if waiting > 1 {
		t.Fatalf("waiting Force: %.1f allocs, want at most 1", waiting)
	}
}

// gateStore is a MemStore whose Sync waits until open, once set, is
// closed.
type gateStore struct {
	*wal.MemStore
	open chan struct{}
}

func (s *gateStore) Sync() error {
	if s.open != nil {
		<-s.open
	}
	return s.MemStore.Sync()
}

// TestQueuedForcesCountGrouped: forces that queue behind one held sync
// and harden together count as grouped commits, all but the one that
// paid for the sync.
func TestQueuedForcesCountGrouped(t *testing.T) {
	store := &gateStore{MemStore: wal.NewMemStore()}
	l, err := New(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	store.open = make(chan struct{})
	const n = 8
	// Append everything first, so one flush holds every record.
	lsns := make([]wal.LSN, n)
	for i := range lsns {
		lsns[i] = l.Append(&wal.Record{Kind: wal.KCommit, TxnID: uint64(i + 1)})
	}
	syncs, grouped := l.Syncs.Load(), l.GroupedCommits.Load()
	var wg sync.WaitGroup
	for _, lsn := range lsns {
		wg.Add(1)
		go func(lsn wal.LSN) {
			defer wg.Done()
			if err := l.Force(lsn); err != nil {
				t.Error(err)
			}
		}(lsn)
	}
	for l.nwait.Load() < n {
		time.Sleep(time.Millisecond)
	}
	close(store.open)
	wg.Wait()
	if ds, dg := l.Syncs.Load()-syncs, l.GroupedCommits.Load()-grouped; ds != 1 || dg != n-1 {
		t.Fatalf("%d forces over %d syncs counted %d grouped, want 1 sync and %d grouped", n, ds, dg, n-1)
	}
}

// TestBlockingAndAsyncForcesShareABatch: blocking forces and callbacks
// that become due in the same flushes all complete, and a callback that
// blocks holds up neither the blocking forces due with it nor later ones.
func TestBlockingAndAsyncForcesShareABatch(t *testing.T) {
	store := &gateStore{MemStore: wal.NewMemStore()}
	l, err := New(store, nil) // New syncs the file header
	if err != nil {
		t.Fatal(err)
	}
	// The daemon syncs only after a force kicks it, which happens after
	// this assignment.
	store.open = make(chan struct{})
	var once sync.Once
	parked, release := make(chan struct{}), make(chan struct{})
	var wg, forced sync.WaitGroup
	for i := 0; i < 16; i++ {
		lsn := l.Append(&wal.Record{Kind: wal.KCommit, TxnID: uint64(i + 1)})
		wg.Add(1)
		forced.Add(1)
		// Nothing is durable while the store's sync is gated, so the
		// callback is queued, never run inline on this goroutine.
		l.ForceAsync(lsn, wal.WaiterFunc(func(err error) {
			defer wg.Done()
			if err != nil {
				t.Error(err)
			}
			once.Do(func() {
				close(parked)
				<-release
			})
		}))
		go func() {
			defer forced.Done()
			if err := l.Force(lsn); err != nil {
				t.Error(err)
			}
		}()
	}
	close(store.open)
	<-parked
	forced.Wait()
	for i := 0; i < 4; i++ {
		if err := l.Force(l.Append(&wal.Record{Kind: wal.KEnd, TxnID: 99})); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
