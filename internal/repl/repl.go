// Package repl is the replication layer: primary/backup log shipping
// built on the group-commit flush pipeline, read replicas, and failover
// promotion.
//
// The unit of shipping is the hardened group extent. Both log managers
// already harden the WAL in contiguous, LSN-ordered extents (the legacy
// log per Force batch, the consolidation-array log per flush-daemon
// batch); the primary's Shipper hangs off that flush path via
// wal.ExtentSink and streams each extent to every attached replica over a
// pluggable Link (in-process for tests, localhost TCP for a two-process
// pair). A replica appends the stream to its own log store — decoding
// first, so only whole records are ever persisted and a torn extent from
// a crashed primary can never be replayed — and replays each record
// through the storage manager's recovery redo path into a live engine
// (sm.Replayer), advancing its replayed-commit horizon as commit records
// arrive.
//
// Commit rules: with Rule.K == 0 replication is asynchronous — commits
// complete at local durability and the stream trails behind. With K > 0
// (semi-sync), the Shipper's commit gate (sm.CommitGate) holds each
// commit acknowledgement until K replicas have acked the commit record's
// LSN; the transaction's effects are then on at least K+1 logs before the
// client hears "committed". If live replicas drop below K the gate
// degrades to asynchronous completion (counted in Degraded) instead of
// wedging the commit pipeline — availability over durability, the usual
// semi-sync production stance.
//
// Read replicas serve read-only flows at the replica's hardened commit
// horizon. Because group commit ships a transaction's update records
// before its commit record, replay must not apply records as they
// arrive: delivered records queue, and only the transaction-consistent
// prefix — every queued transaction resolved by a delivered commit or
// end — is applied, in strict LSN order, exclusively against the read
// path. Reads therefore observe whole committed transactions only; a
// transaction that later aborts (its CLRs trail in the stream) is never
// visible. Replay advances sm's lastCommit when it applies a commit
// record, exactly as the primary's commit path does, and the storage
// manager's ELR read-only rule (wait until the log is durable past the
// horizon you may have observed) holds on the replica trivially because
// delivery hardens the stream before replay applies it. Staleness is
// bounded by shipping+replay lag, measured as primary commit horizon
// minus replica commit horizon.
//
// Replicas fail stop: an error after an extent hardened (replay into the
// live engine, or persisting the stream) would leave the replica's state
// permanently behind its own log — delivery dedupes against the hardened
// horizon, so those records would never be reapplied. Rather than serve
// (or promote) silently divergent state, the replica latches ErrFailed
// and refuses Deliver, ExecReadOnly, and Promote until rebuilt.
//
// Promote turns a replica into a primary at the end of its delivered
// stream: an appendable log manager is adopted over the same store,
// in-flight losers are rolled back with CLRs (a commit record resolves
// its transaction, so nothing else is open), and the engine comes up
// writable. A crashed
// ex-primary whose log runs past the promotion point must truncate that
// tail (wal.TruncateTail) before rejoining as a replica — those records
// were never acked and the new primary's history has diverged from them.
package repl

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/wal"
)

// Link is one replication connection from the primary to a replica.
// Implementations: LocalLink (in-process) and the TCP link from Dial.
type Link interface {
	// Expected returns the LSN from which the replica wants the stream
	// (the end of what it already holds).
	Expected() (uint64, error)
	// Send delivers one contiguous extent and returns the replica's new
	// acked LSN — the end of its hardened stream.
	Send(base uint64, data []byte) (uint64, error)
	// Close tears the connection down.
	Close() error
}

// Rule configures the commit rule.
type Rule struct {
	// K is the number of replica acknowledgements a commit waits for
	// before completing; 0 selects asynchronous replication.
	K int
}

// extent is one queued stream segment.
type extent struct {
	base uint64
	data []byte
}

// link is the shipper's per-replica state: an unbounded FIFO drained by a
// dedicated sender goroutine, so one slow replica never stalls the flush
// daemon or the other replicas.
type link struct {
	t    Link
	name string

	mu    sync.Mutex
	cond  *sync.Cond
	queue []extent
	dead  bool

	acked uint64 // guarded by the shipper's mu
}

func (ln *link) push(base uint64, data []byte) {
	ln.mu.Lock()
	if !ln.dead {
		ln.queue = append(ln.queue, extent{base, data})
		ln.cond.Signal()
	}
	ln.mu.Unlock()
}

// pop blocks for the next extent, merging queued contiguous segments
// into one send. ok=false means the link was torn down.
func (ln *link) pop() (extent, bool) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for len(ln.queue) == 0 && !ln.dead {
		ln.cond.Wait()
	}
	if ln.dead {
		return extent{}, false
	}
	e := ln.queue[0]
	i := 1
	for ; i < len(ln.queue); i++ {
		if ln.queue[i].base != e.base+uint64(len(e.data)) {
			break
		}
		if i == 1 {
			// Extent buffers are shared across links; merge into a copy.
			e.data = append(append([]byte(nil), e.data...), ln.queue[i].data...)
		} else {
			e.data = append(e.data, ln.queue[i].data...)
		}
	}
	ln.queue = ln.queue[i:]
	return e, true
}

func (ln *link) kill() {
	ln.mu.Lock()
	ln.dead = true
	ln.cond.Broadcast()
	ln.mu.Unlock()
	_ = ln.t.Close()
}

// gateWaiter is a commit acknowledgement parked on the replication rule.
type gateWaiter struct {
	lsn  uint64
	done func(error)
}

// Shipper is the primary-side replication endpoint: it receives hardened
// extents from the log's flush path, streams them to every attached
// replica, tracks per-replica acked LSNs, and (for K > 0) gates commit
// completion on the K-ack quorum.
type Shipper struct {
	src   wal.ExtentSource
	store wal.Store // the primary's log store, for catch-up reads
	k     int

	mu      sync.Mutex
	shipped uint64 // end LSN of everything handed to links
	links   []*link
	waiters []gateWaiter
	closed  bool

	// Extents/Bytes count shipped traffic; Acks counts acknowledgements
	// processed; Degraded counts commits the gate released without their
	// quorum (live replicas < K); HealFails counts sink gap-heals that
	// could not read the store (the extent is held back and retried, or —
	// when the gap fell below the truncation horizon — the links are
	// dropped for full resync).
	Extents   metrics.Counter
	Bytes     metrics.Counter
	Acks      metrics.Counter
	Degraded  metrics.Counter
	HealFails metrics.Counter
}

// NewShipper attaches a shipper to a primary's log manager (which must
// support extent streaming — both provided managers do) and its backing
// store. Attach before write traffic starts so no extent predates the
// sink; extents that slip by are healed from the store on the next sink
// call.
func NewShipper(log wal.Manager, store wal.Store, rule Rule) (*Shipper, error) {
	src, ok := log.(wal.ExtentSource)
	if !ok {
		return nil, fmt.Errorf("repl: log manager %T cannot stream extents", log)
	}
	s := &Shipper{src: src, store: store, k: rule.K, shipped: log.Durable()}
	src.SetExtentSink(s.sink)
	return s, nil
}

// AttachPrimary wires replication into a primary storage manager: a
// shipper on its flush path and, for a semi-sync rule, the commit gate.
// store must be the log store the storage manager was opened over.
func AttachPrimary(s *sm.SM, store wal.Store, rule Rule) (*Shipper, error) {
	sh, err := NewShipper(s.Log, store, rule)
	if err != nil {
		return nil, err
	}
	if rule.K > 0 {
		s.SetCommitGate(sh.Gate())
	}
	return sh, nil
}

// sink receives one hardened extent from the flush path. It only copies
// pointers into per-link queues under a short mutex — the flush daemon
// never blocks on replica I/O.
func (s *Shipper) sink(base uint64, data []byte) {
	var killed []*link
	var fire []gateWaiter
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if base > s.shipped {
		// An extent hardened before the sink was installed: heal the gap
		// from the store so links never see a discontinuity.
		gap, err := s.readRange(s.shipped, base)
		switch {
		case err == nil:
			for _, ln := range s.links {
				ln.push(s.shipped, gap)
			}
			s.shipped = base
		case errors.Is(err, errBehindOrigin):
			// The unshipped gap was truncated away: no attached replica
			// can ever receive a contiguous stream from this store again
			// (their acked horizons all precede the gap). Drop them all
			// explicitly — each needs a full resync — and resume shipping
			// contiguously from this extent for future joiners.
			s.HealFails.Inc()
			killed = s.links
			s.links = nil
			s.shipped = base
			fire = s.takeReleasedLocked()
		default:
			// Transient store read failure. Hold this extent back: it is
			// hardened in the store, so the next sink call re-heals from
			// s.shipped and nothing is lost — pushing it now would feed
			// every link a stream gap and tear them all down at once.
			s.HealFails.Inc()
			s.mu.Unlock()
			return
		}
	}
	for _, ln := range s.links {
		ln.push(base, data)
	}
	if end := base + uint64(len(data)); end > s.shipped {
		s.shipped = end
	}
	s.Extents.Inc()
	s.Bytes.Add(int64(len(data)))
	s.mu.Unlock()
	for _, ln := range killed {
		ln.kill()
	}
	for _, w := range fire {
		w.done(nil)
	}
}

// errBehindOrigin reports a stream read below the store's truncation
// horizon — unhealable; the reader needs a full resync.
var errBehindOrigin = errors.New("repl: stream is behind the truncation horizon: full resync required")

// readRange returns stream bytes [from, to) from the primary's store.
func (s *Shipper) readRange(from, to uint64) ([]byte, error) {
	raw, err := s.store.Contents()
	if err != nil {
		return nil, err
	}
	origin, body, err := wal.StreamOrigin(raw)
	if err != nil {
		return nil, err
	}
	if from < origin {
		return nil, fmt.Errorf("%w (stream from %d, origin %d)", errBehindOrigin, from, origin)
	}
	if to > origin+uint64(len(body)) {
		return nil, fmt.Errorf("repl: stream to %d beyond store end %d", to, origin+uint64(len(body)))
	}
	return body[from-origin : to-origin], nil
}

// AddReplica attaches a replica over l. The replica's missing stream
// suffix is queued from the store first (catch-up), so it converges with
// the live extent flow with no gap; a replica whose expected LSN is below
// the truncation horizon cannot be caught up and must full-resync. A
// replica AHEAD of the primary holds divergent history (it is an
// un-truncated ex-primary) and is refused.
func (s *Shipper) AddReplica(name string, l Link) error {
	exp, err := l.Expected()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("repl: shipper closed")
	}
	if exp > s.shipped {
		return fmt.Errorf("repl: replica %s ahead of primary (%d > %d): divergent history, truncate its tail first", name, exp, s.shipped)
	}
	ln := &link{t: l, name: name, acked: exp}
	ln.cond = sync.NewCond(&ln.mu)
	if exp < s.shipped {
		data, err := s.readRange(exp, s.shipped)
		if err != nil {
			return err
		}
		ln.push(exp, data)
	}
	s.links = append(s.links, ln)
	go s.sender(ln)
	return nil
}

// sender drains one link's queue, sending extents and folding acks back
// into the quorum. A send error kills the link (the replica is gone or
// the stream diverged); the quorum recomputes without it.
func (s *Shipper) sender(ln *link) {
	for {
		e, ok := ln.pop()
		if !ok {
			return
		}
		ack, err := ln.t.Send(e.base, e.data)
		if err != nil {
			s.dropLink(ln)
			return
		}
		s.noteAck(ln, ack)
	}
}

// noteAck records a replica's new acked horizon and releases every gate
// waiter the new quorum covers.
func (s *Shipper) noteAck(ln *link, ack uint64) {
	s.Acks.Inc()
	s.mu.Lock()
	if ack > ln.acked {
		ln.acked = ack
	}
	fire := s.takeReleasedLocked()
	s.mu.Unlock()
	for _, w := range fire {
		w.done(nil)
	}
}

// dropLink removes a dead link; losing it can RELEASE waiters — either
// the quorum among the survivors already covers them, or the gate
// degrades to async because fewer than K replicas remain.
func (s *Shipper) dropLink(ln *link) {
	ln.kill()
	s.mu.Lock()
	for i, l := range s.links {
		if l == ln {
			s.links = append(s.links[:i], s.links[i+1:]...)
			break
		}
	}
	fire := s.takeReleasedLocked()
	s.mu.Unlock()
	for _, w := range fire {
		w.done(nil)
	}
}

// quorumLocked returns the K-th highest acked LSN among live links.
// degraded=true means fewer than K live replicas remain and the gate
// passes everything.
func (s *Shipper) quorumLocked() (uint64, bool) {
	if s.k <= 0 {
		return ^uint64(0), false
	}
	if len(s.links) < s.k {
		return 0, true
	}
	acks := make([]uint64, len(s.links))
	for i, ln := range s.links {
		acks[i] = ln.acked
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[s.k-1], false
}

// takeReleasedLocked removes and returns every waiter the current quorum
// (or degraded mode) releases.
func (s *Shipper) takeReleasedLocked() []gateWaiter {
	if len(s.waiters) == 0 {
		return nil
	}
	q, degraded := s.quorumLocked()
	if degraded {
		fire := s.waiters
		s.waiters = nil
		s.Degraded.Add(int64(len(fire)))
		return fire
	}
	var fire []gateWaiter
	keep := s.waiters[:0]
	for _, w := range s.waiters {
		// acked > lsn covers the whole commit record: replicas only ack
		// whole-record prefixes, so any ack past the record's first byte
		// is an ack past its last.
		if q > w.lsn {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	s.waiters = keep
	return fire
}

// Gate returns the commit gate enforcing the semi-sync rule: done runs
// once K replicas acked the commit LSN (immediately when the quorum
// already covers it, or when degradation waives it).
func (s *Shipper) Gate() sm.CommitGate {
	return func(lsn uint64, done func(error)) {
		if s.k <= 0 {
			done(nil)
			return
		}
		s.mu.Lock()
		q, degraded := s.quorumLocked()
		if degraded {
			s.Degraded.Inc()
			s.mu.Unlock()
			done(nil)
			return
		}
		if q > lsn {
			s.mu.Unlock()
			done(nil)
			return
		}
		s.waiters = append(s.waiters, gateWaiter{lsn, done})
		s.mu.Unlock()
	}
}

// AckHorizon returns the slowest live replica's acked LSN — log
// truncation's replication constraint (wal records below it have reached
// every replica). With no live replicas it returns MaxUint64: truncation
// is unconstrained, and a later joiner below the horizon full-resyncs.
func (s *Shipper) AckHorizon() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	min := ^uint64(0)
	for _, ln := range s.links {
		if ln.acked < min {
			min = ln.acked
		}
	}
	return min
}

// ShippedLSN returns the end LSN of everything handed to links.
func (s *Shipper) ShippedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipped
}

// Replicas returns each live replica's name and acked LSN.
func (s *Shipper) Replicas() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.links))
	for _, ln := range s.links {
		out[ln.name] = ln.acked
	}
	return out
}

// DropReplica detaches the named replica (tests: simulate replica death).
func (s *Shipper) DropReplica(name string) {
	s.mu.Lock()
	var target *link
	for _, ln := range s.links {
		if ln.name == name {
			target = ln
			break
		}
	}
	s.mu.Unlock()
	if target != nil {
		s.dropLink(target)
	}
}

// Close detaches the shipper from the flush path, tears down every link,
// and releases any parked commit waiters (their records are locally
// durable; the replication rule ends with the shipper).
func (s *Shipper) Close() error {
	s.src.SetExtentSink(nil)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	links := append([]*link(nil), s.links...)
	s.links = nil
	fire := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, ln := range links {
		ln.kill()
	}
	for _, w := range fire {
		w.done(nil)
	}
	return nil
}
