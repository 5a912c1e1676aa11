package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"dora/internal/page"
)

// tpcbShapes are the five records one TPC-B AccountUpdate writes, with
// field values of the size a 20-s tpcb-durable run reaches: a 12 MiB
// log, 21k transactions, 128 branches of 1,000 accounts (account key
// b*1000+a, teller key b*10+t, history key b<<40|hseq) and tuple images
// of 2, 3 and 5 integer columns (20, 29 and 47 bytes). Each balance
// update is a patch of the balance column — at offset 21 of the account
// and teller images and 12 of the branch image — at its worst case, all
// 8 bytes changed; a delta that changes n < 8 bytes logs 33 + 2n. The
// commit record is terminal: no end record follows it.
func tpcbShapes() []struct {
	name string
	rec  Record
	want int
} {
	const prev, txn = 12 << 20, 21337
	img := func(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }
	return []struct {
		name string
		rec  Record
		want int
	}{
		{"account update", Record{Kind: KUpdate, TxnID: txn, Table: 3, Page: 301, Slot: 187, Key: 64512, Off: 21, Redo: img(8), Undo: img(8)}, 49},
		{"teller update", Record{Kind: KUpdate, PrevLSN: prev, TxnID: txn, Table: 2, Page: 5, Slot: 64, Key: 645, Off: 21, Redo: img(8), Undo: img(8)}, 49},
		{"branch update", Record{Kind: KUpdate, PrevLSN: prev, TxnID: txn, Table: 1, Page: 1, Slot: 64, Key: 64, Off: 12, Redo: img(8), Undo: img(8)}, 49},
		{"history insert", Record{Kind: KInsert, PrevLSN: prev, TxnID: txn, Table: 4, Page: 1200, Slot: 150, Key: 64<<40 | 300_000_000_000, Redo: img(47)}, 86},
		{"commit", Record{Kind: KCommit, PrevLSN: prev, TxnID: txn}, 31},
	}
}

// TestRecordSizes pins the encoded size of TPC-B's record shapes, so a
// format regression fails here and not only in the benchmark. With the
// fixed 68-byte header a transaction took 126+126+108+115+68+68 = 611
// bytes; with varint headers and full before/after images, 90+90+72+86+
// 31+31 = 400; with patches and a terminal commit, 3*49+86+31 = 264.
func TestRecordSizes(t *testing.T) {
	total := 0
	for _, c := range tpcbShapes() {
		rec := c.rec
		if got := EncodedSize(&rec); got != c.want {
			t.Errorf("%s: EncodedSize = %d, want %d", c.name, got, c.want)
		}
		total += EncodedSize(&rec)
	}
	if total > 270 {
		t.Errorf("TPC-B transaction logs %d bytes, want <= 270", total)
	}
}

// seedRecords are the records the package's other tests append, plus
// the TPC-B shapes and the field extremes.
func seedRecords() []Record {
	recs := []Record{
		{Kind: KInsert, TxnID: 1, Table: 3, Page: 7, Slot: 2, Key: 99, Redo: []byte("new")},
		{Kind: KUpdate, TxnID: 1, Table: 3, Page: 7, Slot: 2, Key: 99, Redo: []byte("after"), Undo: []byte("before")},
		{Kind: KCLR, Sub: KUpdate, TxnID: 2, UndoNext: 5, Redo: []byte("comp")},
		{Kind: KUpdate, TxnID: 3, Slot: 4, Key: 8, Off: 21, Redo: []byte("new"), Undo: []byte("old")},
		{Kind: KUpdate, TxnID: 3, Off: 200, Redo: []byte("grown"), Undo: []byte("g")},
		{Kind: KCLR, Sub: KUpdate, TxnID: 3, UndoNext: 9, Off: math.MaxUint16, Undo: []byte("shrunk")},
		{Kind: KCommit, TxnID: 1, PrevLSN: 11},
		{Kind: KEnd, TxnID: 1, PrevLSN: 11},
		{Kind: KInsert, TxnID: 9, Key: 1234, Redo: []byte("persist")},
		{Kind: KUpdate, TxnID: 1, Key: -7, Redo: []byte("payload")},
		{Kind: KCheckpoint, PrevLSN: math.MaxUint64, TxnID: math.MaxUint64, Table: math.MaxUint32,
			Page: math.MaxUint32, Slot: math.MaxUint16, Key: math.MinInt64, UndoNext: math.MaxUint64},
		{Kind: KDelete, Key: math.MaxInt64, Undo: []byte{}},
	}
	for _, c := range tpcbShapes() {
		recs = append(recs, c.rec)
	}
	return recs
}

// seedStream appends recs to a fresh log and returns the stream body
// after the file header.
func seedStream(t testing.TB, recs []Record) []byte {
	l, err := New(NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		r := recs[i]
		l.Append(&r)
	}
	if err := l.FlushAll(); err != nil {
		t.Fatal(err)
	}
	raw, _ := l.store.Contents()
	return raw[HeaderSize:]
}

// frame wraps payload (LSN onward) in a length and a valid checksum.
func frame(payload []byte) []byte {
	b := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(8+len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// rawPayload builds a payload for LSN origin from kind byte and varints
// given as raw bytes, for hand-made malformed records.
func rawPayload(origin LSN, body ...byte) []byte {
	p := binary.LittleEndian.AppendUint64(nil, origin)
	return append(p, body...)
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	const o = LSN(HeaderSize)
	// A well-formed commit: kind, then PrevLSN..UndoNext and two empty
	// image lengths, all one-byte zero varints.
	good := rawPayload(o, byte(KCommit), 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := DecodeStream(o, frame(good), func(*Record) error { return nil }); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	maxU32 := binary.AppendUvarint(nil, math.MaxUint32+1)
	maxU16 := binary.AppendUvarint(nil, math.MaxUint16+1)
	cases := map[string][]byte{
		"short":              rawPayload(o)[:5],
		"no fields":          rawPayload(o, byte(KCommit)),
		"truncated varint":   rawPayload(o, byte(KCommit), 0x80),
		"overlong varint":    rawPayload(o, byte(KCommit), 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0, 0),
		"overflowing varint": rawPayload(o, append([]byte{byte(KCommit)}, bytes.Repeat([]byte{0xFF}, 10)...)...),
		"table > MaxUint32":  rawPayload(o, append(append([]byte{byte(KCommit), 0, 0}, maxU32...), 0, 0, 0, 0, 0, 0)...),
		"page > MaxUint32":   rawPayload(o, append(append([]byte{byte(KCommit), 0, 0, 0}, maxU32...), 0, 0, 0, 0, 0)...),
		"slot > MaxUint16":   rawPayload(o, append(append([]byte{byte(KCommit), 0, 0, 0, 0}, maxU16...), 0, 0, 0, 0)...),
		"image past end":     rawPayload(o, byte(KCommit), 0, 0, 0, 0, 0, 0, 0, 5, 1, 2),
		"trailing bytes":     append(good[:len(good):len(good)], 0),
		// An update carries Off between UndoNext and the images.
		"off > MaxUint16":     rawPayload(o, append(append([]byte{byte(KUpdate), 0, 0, 0, 0, 0, 0, 0}, maxU16...), 0, 0)...),
		"clr off > MaxUint16": rawPayload(o, append(append([]byte{byte(KCLR) | byte(KUpdate)<<4, 0, 0, 0, 0, 0, 0, 0}, maxU16...), 0, 0)...),
		"overlong off":        rawPayload(o, byte(KUpdate), 0, 0, 0, 0, 0, 0, 0, 0x80, 0x00, 0, 0),
		"truncated off":       rawPayload(o, byte(KUpdate), 0, 0, 0, 0, 0, 0, 0, 0x80),
		"update without off":  rawPayload(o, byte(KUpdate), 0, 0, 0, 0, 0, 0, 0, 0),
	}
	goodUpdate := rawPayload(o, byte(KUpdate), 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03, 0, 0)
	if _, err := DecodeStream(o, frame(goodUpdate), func(r *Record) error {
		if r.Off != math.MaxUint16 {
			t.Errorf("Off = %d, want %d", r.Off, math.MaxUint16)
		}
		return nil
	}); err != nil {
		t.Fatalf("update at Off MaxUint16 rejected: %v", err)
	}
	for name, p := range cases {
		n, err := DecodeStream(o, frame(p), func(*Record) error {
			t.Errorf("%s: record delivered", name)
			return nil
		})
		if !errors.Is(err, ErrCorrupt) || n != 0 {
			t.Errorf("%s: DecodeStream = %d, %v; want 0, ErrCorrupt", name, n, err)
		}
	}
}

func TestOldFormatStreamRejected(t *testing.T) {
	for _, magic := range []string{"DORALOG1", "DORATRNC\x08\x00\x00\x00\x00\x00\x00\x00",
		"DORALOG2", "DORATRN2\x08\x00\x00\x00\x00\x00\x00\x00"} {
		raw := append([]byte(magic), make([]byte, 68)...)
		err := ScanBytes(raw, func(*Record) error { return nil })
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad header") {
			t.Errorf("%q stream: err = %v, want bad header", magic[:8], err)
		}
		if _, err := InitStore(&MemStore{buf: raw}); err == nil {
			t.Errorf("%q stream opened", magic[:8])
		}
	}
}

// checkStream decodes body and requires every delivered record to
// re-encode byte for byte to the frame it came from.
func checkStream(t *testing.T, origin LSN, body []byte) {
	n, _ := DecodeStream(origin, body, func(r *Record) error {
		off := r.LSN - origin
		size := EncodedSize(r)
		if off > uint64(len(body)) || uint64(size) > uint64(len(body))-off {
			t.Fatalf("record at LSN %d (size %d) outside the %d-byte body", r.LSN, size, len(body))
		}
		fr := body[off : off+uint64(size)]
		if ln := binary.LittleEndian.Uint32(fr); int(ln) != size {
			t.Fatalf("LSN %d: EncodedSize %d, frame length %d", r.LSN, size, ln)
		}
		b := make([]byte, size)
		EncodeInto(b, r)
		if !bytes.Equal(b, fr) {
			t.Fatalf("LSN %d re-encodes to %x, frame %x", r.LSN, b, fr)
		}
		return nil
	})
	if n < 0 || n > len(body) {
		t.Fatalf("consumed %d of %d bytes", n, len(body))
	}
}

// withValidCRCs returns a copy of body with every whole frame's checksum
// recomputed, so mutated payloads get past the CRC to the decoder.
func withValidCRCs(body []byte) []byte {
	out := bytes.Clone(body)
	for off := 0; off+8 <= len(out); {
		ln := int(binary.LittleEndian.Uint32(out[off:]))
		if ln < 8 || ln > len(out)-off {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(out[off+8:off+ln]))
		off += ln
	}
	return out
}

// FuzzDecodeStream feeds arbitrary bytes to the stream decoder, as they
// are and with their frame checksums made valid: it must never panic,
// and every record it yields must re-encode byte for byte to its frame.
func FuzzDecodeStream(f *testing.F) {
	body := seedStream(f, seedRecords())
	f.Add(uint64(HeaderSize), body)
	f.Add(uint64(HeaderSize), body[:len(body)-3])
	f.Add(uint64(HeaderSize+1), body)
	f.Add(uint64(HeaderSize), []byte{})
	f.Fuzz(func(t *testing.T, origin uint64, body []byte) {
		checkStream(t, origin, body)
		checkStream(t, origin, withValidCRCs(body))
	})
}

// FuzzRecordRoundTrip encodes arbitrary field values and requires
// DecodeStream to give them back unchanged (an empty image decodes as
// nil). Off is encoded for update patches only, so other kinds drop it.
func FuzzRecordRoundTrip(f *testing.F) {
	for _, r := range seedRecords() {
		f.Add(uint64(HeaderSize), r.PrevLSN, r.TxnID, byte(r.Kind)|byte(r.Sub)<<4,
			r.Table, uint32(r.Page), r.Slot, r.Key, r.UndoNext, r.Off, r.Redo, r.Undo)
	}
	f.Fuzz(func(t *testing.T, lsn, prev, txn uint64, kindSub byte, table, pg uint32, slot uint16,
		key int64, undoNext uint64, off uint16, redo, undo []byte) {
		in := Record{LSN: lsn, PrevLSN: prev, TxnID: txn, Kind: Kind(kindSub & 0xF), Sub: Kind(kindSub >> 4),
			Table: table, Page: page.ID(pg), Slot: slot, Key: key, UndoNext: undoNext, Off: off, Redo: redo, Undo: undo}
		if PhysicalKind(&in) != KUpdate {
			in.Off = 0
		}
		b := make([]byte, EncodedSize(&in))
		EncodeInto(b, &in)
		var got []*Record
		n, err := DecodeStream(lsn, b, func(r *Record) error { got = append(got, r); return nil })
		if err != nil || n != len(b) || len(got) != 1 {
			t.Fatalf("DecodeStream = %d, %v, %d records; want %d, nil, 1", n, err, len(got), len(b))
		}
		g := got[0]
		if g.LSN != in.LSN || g.PrevLSN != in.PrevLSN || g.TxnID != in.TxnID || g.Kind != in.Kind ||
			g.Sub != in.Sub || g.Table != in.Table || g.Page != in.Page || g.Slot != in.Slot ||
			g.Key != in.Key || g.UndoNext != in.UndoNext || g.Off != in.Off ||
			!bytes.Equal(g.Redo, in.Redo) || !bytes.Equal(g.Undo, in.Undo) {
			t.Fatalf("round trip: got %+v, want %+v", g, in)
		}
		checkStream(t, lsn, b)
	})
}

// TestDiffSplice: for random images, same-length and length-changing,
// Splice of Diff rebuilds the new image from the old one and the old
// from the new one, and equal images differ by an empty patch.
func TestDiffSplice(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	img := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.IntN(4)) // a small alphabet makes common runs likely
		}
		return b
	}
	for i := 0; i < 5000; i++ {
		old := img(rng.IntN(40))
		var new []byte
		switch i % 3 {
		case 0: // same length, a few bytes changed
			new = bytes.Clone(old)
			for k := rng.IntN(4); k > 0 && len(new) > 0; k-- {
				new[rng.IntN(len(new))] = byte(rng.IntN(4))
			}
		case 1: // a middle range replaced by one of another length
			a := rng.IntN(len(old) + 1)
			b := a + rng.IntN(len(old)-a+1)
			new = append(append(bytes.Clone(old[:a]), img(rng.IntN(12))...), old[b:]...)
		default: // unrelated
			new = img(rng.IntN(40))
		}
		off, redo, undo := Diff(old, new)
		if got := Splice(nil, old, off, redo, len(undo)); !bytes.Equal(got, new) {
			t.Fatalf("Splice(%x, Diff) = %x, want %x", old, got, new)
		}
		if got := Splice(nil, new, off, undo, len(redo)); !bytes.Equal(got, old) {
			t.Fatalf("inverse Splice(%x, Diff) = %x, want %x", new, got, old)
		}
		if len(redo) > 0 && len(undo) > 0 && (redo[0] == undo[0] || redo[len(redo)-1] == undo[len(undo)-1]) {
			t.Fatalf("Diff(%x, %x) left a common byte at an end: redo %x undo %x", old, new, redo, undo)
		}
		if o, r, u := Diff(old, bytes.Clone(old)); len(r) != 0 || len(u) != 0 || o != len(old) {
			t.Fatalf("Diff of equal images %x = %d, %x, %x; want an empty patch", old, o, r, u)
		}
	}
}

// TestDiffSpliceAllocs: Diff only slices, and Splice into a buffer with
// room allocates nothing.
func TestDiffSpliceAllocs(t *testing.T) {
	old, new := bytes.Repeat([]byte{1}, 29), bytes.Repeat([]byte{1}, 29)
	new[22] = 9
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		off, redo, undo := Diff(old, new)
		buf = Splice(buf[:0], old, off, redo, len(undo))
	}); n != 0 {
		t.Fatalf("Diff+Splice allocate %.1f times, want 0", n)
	}
}
