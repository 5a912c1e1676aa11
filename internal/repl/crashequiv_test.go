package repl

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"dora/internal/buffer"
	"dora/internal/page"
	"dora/internal/sm"
	"dora/internal/storage"
	"dora/internal/tuple"
	"dora/internal/tx"
	"dora/internal/wal"
)

// stateDigest hashes the logical content of every table — each row's key
// and record image, in key order — so states reached by different paths
// (page layouts and page LSNs may differ) compare equal when they hold
// the same rows.
func stateDigest(t *testing.T, s *sm.SM) string {
	t.Helper()
	h := sha256.New()
	for _, tbl := range s.Cat.Tables() {
		rows := map[int64][]byte{}
		err := tbl.Heap.Scan(func(_ storage.RID, img []byte) bool {
			rec, err := tuple.Decode(img)
			if err != nil {
				t.Errorf("%s: undecodable row: %v", tbl.Name, err)
				return false
			}
			rows[tbl.Primary.Key(rec)] = img
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]int64, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		h.Write([]byte(tbl.Name))
		for _, k := range keys {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(k)))
			h.Write(binary.AppendUvarint(nil, uint64(len(rows[k]))))
			h.Write(rows[k])
		}
	}
	return string(h.Sum(nil))
}

// cloneDisk copies every page of d, so several restarts can each start
// from the same crash image.
func cloneDisk(t *testing.T, d *buffer.MemDisk) *buffer.MemDisk {
	t.Helper()
	out := buffer.NewMemDisk()
	var pg page.Page
	for i := 0; i < d.NumPages(); i++ {
		id, err := out.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ReadPage(id, &pg); err != nil {
			t.Fatal(err)
		}
		if err := out.WritePage(id, &pg); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCrashEquivalenceAllRedoConsumers runs a seeded mix of Mutate and
// Update — string updates that change the record length included — with
// rollbacks and commits on an 8-frame pool that evicts, leaves one loser
// in flight with its records and dirty pages durable, and crashes. Every
// consumer of the log's update patches then rebuilds the state: restart
// recovery with serial redo and with 4 redo workers, and a replica fed
// the stream and promoted. All three must hold exactly the rows the live
// engine had committed, and serial and parallel recovery must leave
// byte-identical pages.
func TestCrashEquivalenceAllRedoConsumers(t *testing.T) {
	const frames, rows = 8, 4000
	disk, store := buffer.NewMemDisk(), wal.NewMemStore()
	s, err := sm.Open(sm.Options{Frames: frames, Disk: disk, LogStore: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := ddl(s); err != nil {
		t.Fatal(err)
	}
	tbl := s.Cat.Table("accounts")
	ses := s.Session(0)
	rng := rand.New(rand.NewPCG(2027, 5))
	name := func() string { return strings.Repeat("n", rng.IntN(32)) }
	// balance mod 10000 is the row id, so the by_balance secondary stays
	// unique whatever the mix adds.
	load := s.Begin()
	for i := int64(0); i < rows; i++ {
		if err := ses.Insert(load, tbl, acct(i, name(), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(load); err != nil {
		t.Fatal(err)
	}
	// write runs 1-4 random writes in txn. Pages never reclaim space, so
	// a record can grow only into its page's free tail: a write that does
	// not fit fails with ErrPageFull before it logs anything, and the
	// transaction goes on without it. Undoing a shrink needs that room
	// too, so a transaction that will roll back (or stay a loser) only
	// grows its records or keeps their length.
	write := func(txn *tx.Txn, shrink bool) {
		rename := func(cur string) string {
			if shrink {
				return name()
			}
			return cur + strings.Repeat("g", rng.IntN(6))
		}
		for n := 1 + rng.IntN(4); n > 0; n-- {
			key := rng.Int64N(rows)
			d := 10000 * (1 + rng.Int64N(50))
			var err error
			switch rng.IntN(3) {
			case 0: // balance only: a same-length patch
				err = ses.Mutate(txn, tbl, key, func(r tuple.Record) tuple.Record {
					r[2] = tuple.I(r[2].Int + d)
					return r
				})
			case 1: // balance and name: usually a length-changing patch
				err = ses.Mutate(txn, tbl, key, func(r tuple.Record) tuple.Record {
					r[1] = tuple.S(rename(r[1].Str))
					r[2] = tuple.I(r[2].Int - d)
					return r
				})
			default: // a whole new record through Update
				var cur tuple.Record
				if cur, err = ses.Read(txn, tbl, key); err == nil {
					err = ses.Update(txn, tbl, key, acct(key, rename(cur[1].Str), cur[2].Int+d))
				}
			}
			if err != nil && !errors.Is(err, page.ErrPageFull) {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 600; i++ {
		txn := s.Begin()
		commit := rng.IntN(5) != 0
		write(txn, commit)
		if !commit {
			if err := s.Rollback(txn); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	want := stateDigest(t, s)

	// A loser: its records and its dirty pages reach the durable image.
	loser := s.Begin()
	for i := 0; i < 5; i++ {
		write(loser, false)
	}
	if err := s.Log.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	crashed := store.CrashCopy()
	disks := []*buffer.MemDisk{cloneDisk(t, disk), cloneDisk(t, disk)}
	evictions := s.Pool.Evictions.Load()
	_ = s.Close()

	// The crash image must exercise what the test is about: evictions,
	// patches that grow and shrink records, and their compensations. The
	// record ends cut the stream into extents for the replica below.
	origin, body := streamBody(t, crashed)
	var ends []uint64
	var grow, shrink, clrs int
	if _, err := wal.DecodeStream(origin, body, func(r *wal.Record) error {
		ends = append(ends, r.LSN+uint64(wal.EncodedSize(r))-origin)
		switch {
		case r.Kind == wal.KCLR && r.Sub == wal.KUpdate:
			clrs++
		case r.Kind != wal.KUpdate:
		case len(r.Redo) > len(r.Undo):
			grow++
		case len(r.Redo) < len(r.Undo):
			shrink++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if evictions == 0 || grow == 0 || shrink == 0 || clrs == 0 {
		t.Fatalf("weak crash image: %d evictions, %d growing and %d shrinking patches, %d compensations",
			evictions, grow, shrink, clrs)
	}

	var pages [2]string
	for i, workers := range []int{1, 4} {
		s2, err := sm.Open(sm.Options{Frames: frames, Disk: disks[i], LogStore: crashed.CrashCopy(), RedoWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := ddl(s2); err != nil {
			t.Fatal(err)
		}
		st, err := s2.Recover()
		if err != nil {
			t.Fatalf("recover with %d redo workers: %v", workers, err)
		}
		if st.Losers != 1 {
			t.Fatalf("recover with %d redo workers: %d losers, want 1", workers, st.Losers)
		}
		if got := stateDigest(t, s2); got != want {
			t.Fatalf("recover with %d redo workers: rows differ from the live committed state", workers)
		}
		pages[i] = heapDigest(t, s2)
	}
	if pages[0] != pages[1] {
		t.Fatal("serial and parallel recovery left different pages")
	}

	rep, err := NewReplica(Options{Frames: frames, DDL: ddl})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	// Deliver the stream in extents cut at record boundaries, each about
	// 4 KiB, as a primary's flushes would ship it.
	from := uint64(0)
	for i, end := range ends {
		if end-from < 4096 && i < len(ends)-1 {
			continue
		}
		if _, err := rep.Deliver(origin+from, body[from:end]); err != nil {
			t.Fatal(err)
		}
		from = end
	}
	ns, st, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if st.Losers != 1 {
		t.Fatalf("promotion: %d losers, want 1", st.Losers)
	}
	if got := stateDigest(t, ns); got != want {
		t.Fatal("promoted replica: rows differ from the live committed state")
	}
}
