// Package wal implements the write-ahead log: an append-only stream of
// physiological log records with offset-based LSNs, a group-commit force
// path, and a scanner for ARIES-style recovery (analysis / redo / undo is
// driven by internal/sm on top of this package).
//
// The append path of this package's Log serializes on a single mutex —
// the log-buffer critical section that every update of every transaction
// must enter in both the conventional and the DORA engine. It is
// instrumented so experiment E4 can report it separately from lock-manager
// serialization. The clog subpackage removes that serialization with a
// consolidation-array append path; both implement Manager and produce the
// same record stream.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dora/internal/metrics"
	"dora/internal/page"
)

// LSN is a log sequence number: the byte offset of the record in the log
// stream. 0 is never a valid LSN (the stream starts with a file header).
type LSN = uint64

// Kind enumerates log-record types.
type Kind uint8

const (
	// KUpdate logs an in-place record update as a byte-range patch.
	KUpdate Kind = iota + 1
	// KInsert logs a record insertion (after image only).
	KInsert
	// KDelete logs a record deletion (before image only).
	KDelete
	// KCommit marks transaction commit.
	KCommit
	// KAbort marks the start of rollback.
	KAbort
	// KEnd marks the completion of a rollback. A committed transaction
	// ends with its KCommit: the commit record is terminal.
	KEnd
	// KCLR is a compensation log record written during rollback; its
	// UndoNext points at the next record of the transaction to undo.
	KCLR
	// KCheckpoint carries a fuzzy checkpoint (unused fields otherwise).
	KCheckpoint
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KUpdate:
		return "update"
	case KInsert:
		return "insert"
	case KDelete:
		return "delete"
	case KCommit:
		return "commit"
	case KAbort:
		return "abort"
	case KEnd:
		return "end"
	case KCLR:
		return "clr"
	case KCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one log record. Table/Page/Slot/Key locate the change; Redo
// and Undo carry after/before images of the record payload.
//
// An update — KUpdate, or a KCLR whose Sub is KUpdate — is a byte-range
// patch of the record image in its slot: Redo holds the new bytes and
// Undo the old bytes of the range that starts at Off. Applying it is a
// splice, new = cur[:Off] + Redo + cur[Off+len(Undo):] (see Splice), so
// one shape covers same-length and length-changing updates, and a full
// image is the patch with Off = 0. Diff computes the patch of two images.
type Record struct {
	LSN     LSN
	PrevLSN LSN // previous record of the same transaction
	TxnID   uint64
	Kind    Kind
	// Sub qualifies KCLR records with the physical operation the
	// compensation performs (KInsert, KUpdate or KDelete); zero otherwise.
	Sub      Kind
	Table    uint32
	Page     page.ID
	Slot     uint16
	Key      int64
	UndoNext LSN    // CLR only: next LSN of this txn to undo
	Off      uint16 // update patches only: offset of the patched range
	Redo     []byte
	Undo     []byte
}

const fileHeader = "DORALOG3"

// HeaderSize is the length of the file header that precedes the first
// record; the first valid LSN equals HeaderSize.
const HeaderSize = len(fileHeader)

// truncHeader is the alternate file header of a prefix-truncated stream;
// it is followed by the 8-byte LSN (= original stream offset) of the first
// retained record, so LSNs survive truncation unchanged.
const truncHeader = "DORATRN3"

// TruncHeaderSize is the length of the truncated-stream header: magic plus
// the origin LSN.
const TruncHeaderSize = len(truncHeader) + 8

// ErrCorrupt reports a checksum or framing failure while scanning.
var ErrCorrupt = errors.New("wal: corrupt log")

// ExtentSink receives hardened log extents: base is the LSN of the first
// byte of data, and data holds one or more whole framed records that have
// just become durable. The flush path invokes the sink serially, in LSN
// order, with no gaps between successive extents; ownership of data
// transfers to the sink. Replication (internal/repl) hangs its shipper
// here.
type ExtentSink func(base LSN, data []byte)

// ExtentSource is implemented by log managers that can stream hardened
// extents to a sink (log shipping).
type ExtentSource interface {
	// SetExtentSink installs fn to observe every subsequently hardened
	// extent; nil detaches. The sink runs on the flush path, so it must
	// only hand the extent off (queue it), never block on downstream I/O.
	SetExtentSink(fn ExtentSink)
}

// Truncator is implemented by log managers whose backing store can drop
// its hardened prefix (see Truncate); internal/sm's trimmer drives it.
type Truncator interface {
	Truncate(origin LSN) error
}

// Manager is the log-manager interface the storage manager runs on. Two
// implementations exist: Log (this package; single-mutex append path) and
// clog.Log (consolidation-array append path with flush pipelining). Both
// produce the same on-disk record stream, so recovery's scanner and every
// log-inspection tool work over either.
type Manager interface {
	// Append assigns an LSN to rec, serializes it into the log buffer,
	// and returns the LSN. The record is not durable until forced.
	Append(rec *Record) LSN
	// Force blocks until every record with LSN <= lsn is durable.
	Force(lsn LSN) error
	// FlushAll forces everything appended so far.
	FlushAll() error
	// Durable returns the LSN up to which (exclusive) the log is durable.
	Durable() LSN
	// Next returns the LSN the next Append will receive.
	Next() LSN
	// Scan decodes every record in the stream in order.
	Scan(fn func(*Record) error) error
	// Stats snapshots the manager's operation counters.
	Stats() Stats
	// Close flushes outstanding records and stops any background worker.
	// It does not close the underlying Store.
	Close() error
}

// AsyncForcer is implemented by log managers that can complete
// transactions asynchronously: w.Forced runs once every record with LSN
// <= lsn is durable (or the log has failed). The storage manager uses it
// for flush pipelining — commit does not block the worker on the sync.
type AsyncForcer interface {
	ForceAsync(lsn LSN, w Waiter)
}

// Waiter receives the outcome of an asynchronous force exactly once. A
// committing transaction is its own waiter (tx.Txn), so the common
// commit queues no closure.
type Waiter interface {
	Forced(err error)
}

// WaiterFunc adapts a function to Waiter.
type WaiterFunc func(error)

// Forced implements Waiter.
func (f WaiterFunc) Forced(err error) { f(err) }

// Stats is a point-in-time copy of a log manager's operation counters.
type Stats struct {
	// Appends counts records appended; Forces counts durability requests
	// (Force and ForceAsync).
	Appends int64
	Forces  int64
	// Syncs counts device syncs actually issued; GroupedCommits counts
	// forces satisfied without one (the group-commit win).
	Syncs          int64
	GroupedCommits int64
	// Groups counts entries into the serialized buffer-reservation step;
	// Consolidated counts appends that piggybacked on another thread's
	// reservation (always zero for the single-mutex log).
	Groups       int64
	Consolidated int64
}

// Store is the durable byte sink behind the log.
type Store interface {
	// Write appends b at the end of the store.
	Write(b []byte) error
	// Sync makes all written bytes durable.
	Sync() error
	// Contents returns the full stream for recovery scans.
	Contents() ([]byte, error)
	// Close releases resources.
	Close() error
}

// Rewriter is implemented by stores whose entire content can be replaced
// atomically — the primitive behind prefix truncation (bounding log
// growth) and tail truncation (discarding a divergent tail on rejoin
// after failover). Both provided stores implement it.
type Rewriter interface {
	Rewrite(raw []byte) error
}

// Truncate drops every record below origin from store, replacing the
// header with a truncated-stream header that records origin. origin must
// be a record boundary within the durable stream; retained records keep
// their LSNs (LSN = original stream offset survives because the origin is
// recorded in the header). Truncating at or before the current origin is
// a no-op.
func Truncate(store Store, origin LSN) error {
	raw, err := store.Contents()
	if err != nil {
		return err
	}
	cur, body, err := StreamOrigin(raw)
	if err != nil {
		return err
	}
	if origin <= cur {
		return nil
	}
	if origin > cur+LSN(len(body)) {
		return fmt.Errorf("wal: truncate origin %d beyond stream end %d", origin, cur+LSN(len(body)))
	}
	rw, ok := store.(Rewriter)
	if !ok {
		return fmt.Errorf("wal: store %T cannot rewrite", store)
	}
	img := make([]byte, 0, TruncHeaderSize+len(body)-int(origin-cur))
	img = append(img, truncHeader...)
	img = binary.LittleEndian.AppendUint64(img, origin)
	img = append(img, body[origin-cur:]...)
	return rw.Rewrite(img)
}

// TruncateTail discards every stream byte at or beyond end, keeping the
// header form. A rejoining ex-primary truncates its log at the promotion
// point this way, discarding the unacked tail the new primary never saw,
// before re-opening the store as a replica.
func TruncateTail(store Store, end LSN) error {
	raw, err := store.Contents()
	if err != nil {
		return err
	}
	cur, body, err := StreamOrigin(raw)
	if err != nil {
		return err
	}
	if end < cur {
		return fmt.Errorf("wal: tail-truncate point %d below stream origin %d", end, cur)
	}
	if end >= cur+LSN(len(body)) {
		return nil
	}
	rw, ok := store.(Rewriter)
	if !ok {
		return fmt.Errorf("wal: store %T cannot rewrite", store)
	}
	return rw.Rewrite(raw[:len(raw)-len(body)+int(end-cur)])
}

// MemStore is an in-memory Store for tests and I/O-free benchmarks. Its
// CrashCopy method returns only the synced prefix, letting tests simulate
// the loss of unsynced log data at a crash.
type MemStore struct {
	mu     sync.Mutex
	buf    []byte
	synced int
}

// CrashCopy returns a new MemStore containing only the bytes that were
// durable (synced) — what a real disk would hold after a crash.
func (s *MemStore) CrashCopy() *MemStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &MemStore{buf: append([]byte(nil), s.buf[:s.synced]...)}
	out.synced = len(out.buf)
	return out
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Write implements Store.
func (s *MemStore) Write(b []byte) error {
	s.mu.Lock()
	s.buf = append(s.buf, b...)
	s.mu.Unlock()
	return nil
}

// Sync implements Store.
func (s *MemStore) Sync() error {
	s.mu.Lock()
	s.synced = len(s.buf)
	s.mu.Unlock()
	return nil
}

// Contents implements Store.
func (s *MemStore) Contents() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]byte, len(s.buf))
	copy(out, s.buf)
	return out, nil
}

// Rewrite implements Rewriter: the new image replaces the content and is
// immediately durable.
func (s *MemStore) Rewrite(raw []byte) error {
	s.mu.Lock()
	s.buf = append(s.buf[:0], raw...)
	s.synced = len(s.buf)
	s.mu.Unlock()
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore is a file-backed Store.
type FileStore struct {
	f *os.File
}

// OpenFileStore opens (creating if needed) the log file at path and
// positions writes at its end.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &FileStore{f: f}, nil
}

// Write implements Store.
func (s *FileStore) Write(b []byte) error {
	_, err := s.f.Write(b)
	return err
}

// Sync implements Store.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Contents implements Store.
func (s *FileStore) Contents() ([]byte, error) { return os.ReadFile(s.f.Name()) }

// Rewrite implements Rewriter by writing the new image to a temp file,
// syncing it, renaming it over the log, and syncing the parent directory
// so the rename itself is durable — without that, a crash after Rewrite
// returns could resurrect the pre-rewrite file, re-exposing exactly the
// bytes the caller truncated away (for TruncateTail on a rejoining
// ex-primary, the divergent tail the failover safety argument discards).
func (s *FileStore) Rewrite(raw []byte) error {
	path := s.f.Name()
	tmp := path + ".rewrite"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return err
	}
	nf, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f.Close()
	s.f = nf
	return nil
}

// syncDir fsyncs a directory, making a rename within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }

// Log is the log manager.
type Log struct {
	mu      sync.Mutex // append critical section
	buf     []byte     // appended but not yet handed to store
	nextLSN LSN        // offset the next record will get
	err     error      // sticky store failure: a dead log stays dead (mu)

	flushMu sync.Mutex // serializes Force (group commit)
	durable LSN        // all records below this offset are durable (atomic via mu)

	sink atomic.Pointer[ExtentSink] // hardened-extent observer (log shipping)

	store Store
	cs    *metrics.CriticalSectionStats

	// Appends and Forces count operations; GroupedCommits counts Force
	// calls satisfied by an earlier flush (the group-commit win); Syncs
	// counts device syncs actually issued.
	Appends        metrics.Counter
	Forces         metrics.Counter
	GroupedCommits metrics.Counter
	Syncs          metrics.Counter
}

// InitStore writes the file header into an empty store (and syncs it), or
// validates the header of a non-empty one, returning the LSN after the
// existing content — where the next append goes. Shared by both log
// managers so they open each other's streams.
func InitStore(store Store) (LSN, error) {
	existing, err := store.Contents()
	if err != nil {
		return 0, err
	}
	if len(existing) == 0 {
		if err := store.Write([]byte(fileHeader)); err != nil {
			return 0, err
		}
		if err := store.Sync(); err != nil {
			return 0, err
		}
		return LSN(HeaderSize), nil
	}
	origin, body, err := StreamOrigin(existing)
	if err != nil {
		return 0, err
	}
	return origin + LSN(len(body)), nil
}

// StreamOrigin parses a raw log image's header, returning the LSN of the
// first byte of body. Full streams ("DORALOG3") begin at HeaderSize;
// prefix-truncated streams ("DORATRN3" + origin) begin wherever
// truncation left them.
func StreamOrigin(raw []byte) (LSN, []byte, error) {
	if len(raw) >= HeaderSize && string(raw[:HeaderSize]) == fileHeader {
		return LSN(HeaderSize), raw[HeaderSize:], nil
	}
	if len(raw) >= TruncHeaderSize && string(raw[:len(truncHeader)]) == truncHeader {
		origin := binary.LittleEndian.Uint64(raw[len(truncHeader):])
		return origin, raw[TruncHeaderSize:], nil
	}
	return 0, nil, fmt.Errorf("%w: bad header", ErrCorrupt)
}

// New creates a log manager over store. If the store is empty the file
// header is written; otherwise appends continue after existing content.
func New(store Store, cs *metrics.CriticalSectionStats) (*Log, error) {
	next, err := InitStore(store)
	if err != nil {
		return nil, err
	}
	l := &Log{store: store, cs: cs, nextLSN: next}
	l.durable = l.nextLSN
	return l, nil
}

// Append assigns an LSN to rec, serializes it into the log buffer, and
// returns the LSN. The record is not durable until Force.
func (l *Log) Append(rec *Record) LSN {
	b := encode(rec)
	l.mu.Lock()
	if l.cs != nil {
		l.cs.Log.Inc()
	}
	rec.LSN = l.nextLSN
	// Patch the LSN into the already-encoded frame.
	binary.LittleEndian.PutUint64(b[lsnOff:], rec.LSN)
	// Recompute checksum over payload (LSN is inside the payload).
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[lsnOff:]))
	l.buf = append(l.buf, b...)
	l.nextLSN += LSN(len(b))
	l.Appends.Inc()
	l.mu.Unlock()
	return rec.LSN
}

// Durable returns the LSN up to which (exclusive) the log is durable.
func (l *Log) Durable() LSN {
	l.mu.Lock()
	d := l.durable
	l.mu.Unlock()
	return d
}

// Next returns the LSN the next Append will receive.
func (l *Log) Next() LSN {
	l.mu.Lock()
	n := l.nextLSN
	l.mu.Unlock()
	return n
}

// Force blocks until every record with LSN <= lsn is durable. Concurrent
// forcers are batched: the first flush covers all earlier appends, and
// later callers return without touching the store (group commit). A store
// failure is sticky: the durability horizon freezes and every later Force
// reports the failure, so an engine that told its client "aborted" on a
// commit error can never see a later sync quietly harden that commit.
func (l *Log) Force(lsn LSN) error {
	l.Forces.Inc()
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.durable > lsn {
		l.mu.Unlock()
		l.GroupedCommits.Inc()
		return nil
	}
	l.mu.Unlock()

	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.durable > lsn {
		l.mu.Unlock()
		l.GroupedCommits.Inc()
		return nil
	}
	pend := l.buf
	l.buf = nil
	upTo := l.nextLSN
	l.mu.Unlock()

	err := error(nil)
	if len(pend) > 0 {
		err = l.store.Write(pend)
	}
	if err == nil {
		err = l.store.Sync()
	}
	if err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		return err
	}
	l.Syncs.Inc()
	if sp := l.sink.Load(); sp != nil && len(pend) > 0 {
		// pend was detached from the buffer above; ownership transfers to
		// the sink. Still under flushMu, so extents arrive in LSN order.
		(*sp)(upTo-LSN(len(pend)), pend)
	}
	l.mu.Lock()
	l.durable = upTo
	l.mu.Unlock()
	return nil
}

// SetExtentSink implements ExtentSource.
func (l *Log) SetExtentSink(fn ExtentSink) {
	if fn == nil {
		l.sink.Store(nil)
		return
	}
	l.sink.Store(&fn)
}

// Truncate implements Truncator: it drops records below origin from the
// backing store, serialized with Force so the rewrite never interleaves
// with a flush. origin must not exceed the durable horizon.
func (l *Log) Truncate(origin LSN) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	d := l.durable
	l.mu.Unlock()
	if origin > d {
		return fmt.Errorf("wal: truncate origin %d above durable horizon %d", origin, d)
	}
	return Truncate(l.store, origin)
}

// Stats implements Manager. Every append reserves buffer space by itself,
// so Groups mirrors Appends and nothing consolidates.
func (l *Log) Stats() Stats {
	a := l.Appends.Load()
	return Stats{
		Appends:        a,
		Forces:         l.Forces.Load(),
		Syncs:          l.Syncs.Load(),
		GroupedCommits: l.GroupedCommits.Load(),
		Groups:         a,
	}
}

// Close implements Manager: it flushes outstanding records. The single-
// mutex log has no background worker to stop.
func (l *Log) Close() error { return l.FlushAll() }

// FlushAll forces everything appended so far.
func (l *Log) FlushAll() error {
	l.mu.Lock()
	target := l.nextLSN
	l.mu.Unlock()
	if target == 0 {
		return nil
	}
	return l.Force(target - 1)
}

// Scan decodes every record in the durable+buffered stream in order,
// invoking fn for each. Used by recovery and by log-inspection tools.
func (l *Log) Scan(fn func(*Record) error) error {
	if err := l.FlushAll(); err != nil {
		return err
	}
	raw, err := l.store.Contents()
	if err != nil {
		return err
	}
	return ScanBytes(raw, fn)
}

// ScanBytes decodes a raw log image (including either header form).
func ScanBytes(raw []byte, fn func(*Record) error) error {
	origin, body, err := StreamOrigin(raw)
	if err != nil {
		return err
	}
	_, err = DecodeStream(origin, body, fn)
	return err
}

// DecodeStream decodes framed records from body, whose first byte sits at
// LSN origin in the log stream, invoking fn for each whole record. It
// stops at the first incomplete or checksum-failing frame — a torn tail
// after a crash, or, on a replication link, bytes still in flight — and
// returns how many body bytes complete records consumed, so a receiver
// can append exactly the decodable prefix and keep the rest pending. A
// record that decodes but disagrees with its stream offset is hard
// corruption, as is an error from fn.
func DecodeStream(origin LSN, body []byte, fn func(*Record) error) (int, error) {
	off := 0
	for off < len(body) {
		if off+8 > len(body) {
			break // torn frame header
		}
		ln := int(binary.LittleEndian.Uint32(body[off:]))
		crc := binary.LittleEndian.Uint32(body[off+4:])
		if ln < 8 || off+ln > len(body) {
			break // torn record
		}
		payload := body[off+8 : off+ln]
		if crc32.ChecksumIEEE(payload) != crc {
			break // torn / corrupt tail ends the scan
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return off, err
		}
		if rec.LSN != origin+LSN(off) {
			return off, fmt.Errorf("%w: LSN %d at offset %d", ErrCorrupt, rec.LSN, origin+LSN(off))
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += ln
	}
	return off, nil
}

// PhysicalKind returns the heap operation r performs — KInsert, KUpdate
// or KDelete, resolving a KCLR to the compensating operation carried in
// Sub — or 0 for records with no physical page effect (commit, abort,
// end, checkpoint). Recovery redo, replica replay and the partition-
// parallel redo dispatcher all classify records with it.
func PhysicalKind(r *Record) Kind {
	kind := r.Kind
	if kind == KCLR {
		kind = r.Sub
	}
	switch kind {
	case KInsert, KUpdate, KDelete:
		return kind
	}
	return 0
}

// PageKey returns the heap page r physically touches — the shard key of
// partition-parallel redo. Records with the same page key must apply in
// LSN order (the page-LSN idempotence invariant and the slot-allocation
// determinism of RedoInsert both ride per-page ordering); records with
// different keys touch disjoint pages and redo concurrently. ok is false
// for records with no physical effect — transaction resolution and
// checkpoints — which stay on the redo dispatcher.
func PageKey(r *Record) (page.ID, bool) {
	if PhysicalKind(r) == 0 {
		return 0, false
	}
	return r.Page, true
}

// Record layout. Every frame starts with a fixed 17-byte prefix:
//
//	u32 frame length | u32 CRC-32 (IEEE) of the payload | u64 LSN | u8 Kind|Sub<<4
//
// where the payload is everything after the CRC. The rest are unsigned
// varints (encoding/binary's uvarint): PrevLSN, TxnID, Table, Page,
// Slot, the zigzag-mapped Key, UndoNext, Off (update patches only), then
// len(Redo) followed by Redo and len(Undo) followed by Undo. A record's
// size depends on its fields but never on its own LSN (the LSN is
// fixed-width and PrevLSN stays absolute), because both log managers size
// a record before its LSN is known. Kind and Sub each fit in four bits.
const (
	lsnOff     = 8           // the LSN sits right after length and CRC
	kindOff    = lsnOff + 8  // then the Kind|Sub<<4 byte
	fixedBytes = kindOff + 1 // where the varints start
)

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps signed keys to unsigned so small negative keys stay short.
func zigzag(k int64) uint64 { return uint64(k<<1) ^ uint64(k>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// EncodedSize returns the framed size of r in bytes — the number of LSN
// units the record occupies in the stream.
func EncodedSize(r *Record) int {
	n := fixedBytes +
		uvarintLen(r.PrevLSN) + uvarintLen(r.TxnID) +
		uvarintLen(uint64(r.Table)) + uvarintLen(uint64(r.Page)) + uvarintLen(uint64(r.Slot)) +
		uvarintLen(zigzag(r.Key)) + uvarintLen(r.UndoNext) +
		uvarintLen(uint64(len(r.Redo))) + len(r.Redo) +
		uvarintLen(uint64(len(r.Undo))) + len(r.Undo)
	if PhysicalKind(r) == KUpdate {
		n += uvarintLen(uint64(r.Off))
	}
	return n
}

// encode frames rec. The checksum is left for Append to fill after it
// patches the LSN.
func encode(r *Record) []byte {
	b := make([]byte, EncodedSize(r))
	encodeInto(b, r, false)
	return b
}

// EncodeInto serializes r — including its current LSN and the payload
// checksum — into b, which must be exactly EncodedSize(r) bytes. Both log
// managers use it, so their streams are byte-identical for equal records.
func EncodeInto(b []byte, r *Record) { encodeInto(b, r, true) }

func encodeInto(b []byte, r *Record, withCRC bool) {
	binary.LittleEndian.PutUint32(b[0:], uint32(len(b)))
	binary.LittleEndian.PutUint64(b[lsnOff:], r.LSN)
	b[kindOff] = byte(r.Kind&0xF) | byte(r.Sub)<<4
	w := fixedBytes
	w += binary.PutUvarint(b[w:], r.PrevLSN)
	w += binary.PutUvarint(b[w:], r.TxnID)
	w += binary.PutUvarint(b[w:], uint64(r.Table))
	w += binary.PutUvarint(b[w:], uint64(r.Page))
	w += binary.PutUvarint(b[w:], uint64(r.Slot))
	w += binary.PutUvarint(b[w:], zigzag(r.Key))
	w += binary.PutUvarint(b[w:], r.UndoNext)
	if PhysicalKind(r) == KUpdate {
		w += binary.PutUvarint(b[w:], uint64(r.Off))
	}
	w += binary.PutUvarint(b[w:], uint64(len(r.Redo)))
	w += copy(b[w:], r.Redo)
	w += binary.PutUvarint(b[w:], uint64(len(r.Undo)))
	copy(b[w:], r.Undo)
	if withCRC {
		binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[lsnOff:]))
	}
}

// payloadReader decodes the varint fields of a payload. The first
// malformed field sets err and every later read returns zero, so
// decodePayload checks once at the end.
type payloadReader struct {
	p   []byte
	w   int
	err error
}

// uvarint reads one canonical uvarint no larger than max: a truncated,
// overflowing or non-minimal encoding (which would break
// EncodedSize(decoded) == frame length) is corruption.
func (d *payloadReader) uvarint(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p[d.w:])
	if n <= 0 || n != uvarintLen(v) || v > max {
		d.err = fmt.Errorf("%w: bad varint at payload offset %d", ErrCorrupt, d.w)
		return 0
	}
	d.w += n
	return v
}

// image reads a length-prefixed record image into a fresh slice (nil
// when empty).
func (d *payloadReader) image() []byte {
	n := d.uvarint(math.MaxUint32)
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.p)-d.w) {
		d.err = fmt.Errorf("%w: image length %d past payload end", ErrCorrupt, n)
		return nil
	}
	out := append([]byte(nil), d.p[d.w:d.w+int(n)]...)
	d.w += int(n)
	return out
}

// decodePayload parses the bytes after a frame's length and CRC.
func decodePayload(p []byte) (*Record, error) {
	if len(p) < fixedBytes-lsnOff {
		return nil, fmt.Errorf("%w: short payload", ErrCorrupt)
	}
	ks := p[kindOff-lsnOff]
	r := &Record{LSN: binary.LittleEndian.Uint64(p), Kind: Kind(ks & 0xF), Sub: Kind(ks >> 4)}
	d := payloadReader{p: p, w: fixedBytes - lsnOff}
	r.PrevLSN = d.uvarint(math.MaxUint64)
	r.TxnID = d.uvarint(math.MaxUint64)
	r.Table = uint32(d.uvarint(math.MaxUint32))
	r.Page = page.ID(d.uvarint(math.MaxUint32))
	r.Slot = uint16(d.uvarint(math.MaxUint16))
	r.Key = unzigzag(d.uvarint(math.MaxUint64))
	r.UndoNext = d.uvarint(math.MaxUint64)
	if PhysicalKind(r) == KUpdate {
		r.Off = uint16(d.uvarint(math.MaxUint16))
	}
	r.Redo = d.image()
	r.Undo = d.image()
	if d.err != nil {
		return nil, d.err
	}
	if d.w != len(p) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p)-d.w)
	}
	return r, nil
}

// Diff returns the patch that turns the record image old into new: the
// length of their common prefix, and the middles of new (redo) and of old
// (undo) left once the common prefix and suffix are trimmed. redo and
// undo are subslices of the arguments; equal images give two empty
// middles. Splice(dst, old, off, redo, len(undo)) rebuilds new, and
// Splice(dst, new, off, undo, len(redo)) rebuilds old.
func Diff(old, new []byte) (off int, redo, undo []byte) {
	n := min(len(old), len(new))
	for off < n && old[off] == new[off] {
		off++
	}
	suf := 0
	for suf < n-off && old[len(old)-1-suf] == new[len(new)-1-suf] {
		suf++
	}
	return off, new[off : len(new)-suf], old[off : len(old)-suf]
}

// Splice appends to dst the image cur with its cut bytes at off replaced
// by ins — cur[:off] + ins + cur[off+cut:] — and returns the extended
// slice. It allocates only when dst lacks the capacity. The caller checks
// that the range lies inside cur and holds the patch's pre-image.
func Splice(dst, cur []byte, off int, ins []byte, cut int) []byte {
	dst = append(dst, cur[:off]...)
	dst = append(dst, ins...)
	return append(dst, cur[off+cut:]...)
}
