// Package monitor implements the live-systems interface of the demo
// (§2.2): a TCP server that streams JSON snapshots of both engines'
// real-time statistics — throughput, per-micro-engine utilization and
// queue lengths, partitioning information as it changes under the load
// balancer, lock-manager critical-section counts, and alignment
// counters. The demo GUI (its Figure 1) is a client of exactly this
// interface; cmd/doramon ships a terminal client.
package monitor

import (
	"bufio"
	"encoding/json"
	"net"
	"sync"
	"time"

	"dora/internal/dora"
	"dora/internal/maint"
	"dora/internal/metrics"
	"dora/internal/repl"
	"dora/internal/sm"
	"dora/internal/trace"
)

// EngineView is the per-engine slice of a snapshot.
type EngineView struct {
	Name       string  `json:"name"`
	Committed  int64   `json:"committed"`
	Aborted    int64   `json:"aborted"`
	Throughput float64 `json:"throughput"` // txn/s since previous snapshot
}

// Snapshot is one monitoring sample.
type Snapshot struct {
	At         time.Time            `json:"at"`
	Engines    []EngineView         `json:"engines"`
	Partitions []dora.PartitionStat `json:"partitions,omitempty"`
	// Routing lists, per table, the current ranges (partitioning info
	// "which dynamically changes, as DORA adjusts").
	Routing map[string][]RangeView `json:"routing,omitempty"`
	// CS is the critical-section accounting of the shared storage manager.
	CS metrics.SnapshotCS `json:"critical_sections"`
	// Unaligned is per-table, per-field non-aligned dispatch counts.
	Unaligned map[string]map[string]int64 `json:"unaligned,omitempty"`
	// BufferHitRate is the buffer pool hit rate.
	BufferHitRate float64 `json:"buffer_hit_rate"`
	// LogAppends / LogForces / GroupCommits describe the WAL.
	LogAppends   int64 `json:"log_appends"`
	LogForces    int64 `json:"log_forces"`
	GroupCommits int64 `json:"group_commits"`
	// Heaps reports, per table, the owner-thread read/write counters and
	// the stamped-page count — the physical-layout convergence signal the
	// maintenance daemon works on and the latch-free write path depends
	// on.
	Heaps map[string]HeapView `json:"heaps,omitempty"`
	// PageCleaning is the buffer pool's copy-on-write cleaning
	// accounting: snapshot requests shipped to owner threads, hardened
	// copies that retired a dirty bit, and forced stamped evictions.
	PageCleaning *PageCleaningView `json:"page_cleaning,omitempty"`
	// Maint is the maintenance daemon's progress (nil when none runs).
	Maint *maint.Stats `json:"maint,omitempty"`
	// Ships is the DORA engine's cross-partition ship accounting:
	// blocking vs continuation ships, continuations delivered, actions
	// currently suspended on in-flight foreign operations, the inbox
	// depth continuation traffic contributes, and any diagnosed ship
	// cycles (nil without a DORA engine).
	Ships *dora.ShipStats `json:"ships,omitempty"`
	// Locks is the DORA engine's local-lock-table accounting: grant
	// operations, coarse range locks, escalations/de-escalations, and
	// maintenance busy-gate probes (nil without a DORA engine).
	Locks *dora.LockStats `json:"locks,omitempty"`
	// Replication carries one view per replication role this process
	// plays (a primary shipping its log, a replica replaying one, or
	// both when a read replica runs in-process).
	Replication []ReplicationView `json:"replication,omitempty"`
	// StageLatency is the transaction tracer's per-stage latency
	// decomposition (nil when no tracer is wired into the Source).
	StageLatency *StageLatencyView `json:"stage_latency,omitempty"`
}

// StageLatencyView is the tracer's aggregate snapshot as it appears on
// the monitoring wire: sample accounting, end-to-end quantiles, span
// coverage, and one StageView per stage with observations.
type StageLatencyView = trace.StageLatency

// ReplicationView is the replication slice of a snapshot: the shipping
// and acknowledgement horizons on a primary, the delivery/replay/commit
// horizons and bounded-staleness lag on a replica.
type ReplicationView struct {
	Role string `json:"role"` // "primary" or "replica"
	// Primary side: the end LSN handed to links, each replica's acked
	// LSN, the slowest ack (the log-truncation constraint), the byte lag
	// of the slowest replica, and commits completed without their quorum.
	ShippedLSN      uint64            `json:"shipped_lsn,omitempty"`
	Replicas        map[string]uint64 `json:"replicas,omitempty"`
	AckHorizon      uint64            `json:"ack_horizon,omitempty"`
	LagBytes        uint64            `json:"lag_bytes,omitempty"`
	DegradedCommits int64             `json:"degraded_commits,omitempty"`
	// RetainedLog / LogTrims report the cleaning-aware truncation daemon.
	RetainedLog uint64 `json:"retained_log,omitempty"`
	LogTrims    int64  `json:"log_trims,omitempty"`
	// Replica side: the hardened delivery horizon, the replayed horizon,
	// the commit horizon read-only sessions observe, the staleness in
	// bytes behind the primary's commit horizon (when the primary is in
	// reach), read-only flows served, and transactions open in the stream.
	DeliveredLSN   uint64 `json:"delivered_lsn,omitempty"`
	AppliedLSN     uint64 `json:"applied_lsn,omitempty"`
	CommitHorizon  uint64 `json:"commit_horizon,omitempty"`
	StalenessBytes uint64 `json:"staleness_bytes,omitempty"`
	ReplicaReads   int64  `json:"replica_reads,omitempty"`
	OpenTxns       int    `json:"open_txns,omitempty"`
	// Warming counts bootstrapped transactions whose resolution has not
	// replayed yet (reads refused meanwhile); Failed carries the replica's
	// fail-stop reason, empty while healthy.
	Warming int    `json:"warming,omitempty"`
	Failed  string `json:"failed,omitempty"`
	// ApplyLagBytes is the delivered-but-unapplied backlog (DeliveredLSN
	// minus AppliedLSN): what the replay pipeline still owes readers.
	ApplyLagBytes uint64 `json:"apply_lag_bytes,omitempty"`
	// LagTrendBps is the staleness rate of change in bytes/second since
	// the previous snapshot — negative while the replica catches up,
	// positive while it falls behind (zero with no previous sample).
	LagTrendBps int64 `json:"lag_trend_bps,omitempty"`
	// Redo is the parallel-redo applier pool's view (nil when replaying
	// serially): worker count, high-water queue depth, and each applier's
	// last-applied LSN and current queue depth.
	Redo *sm.RedoStats `json:"redo,omitempty"`
}

// ReplSource bundles the replication endpoints the monitor samples. Any
// field may be nil; Primary is the staleness reference for Replica.
type ReplSource struct {
	Shipper *repl.Shipper
	Trimmer *sm.Trimmer
	Replica *repl.Replica
	Primary *sm.SM
}

func (r *ReplSource) views() []ReplicationView {
	var out []ReplicationView
	if r.Shipper != nil {
		v := ReplicationView{
			Role:            "primary",
			ShippedLSN:      r.Shipper.ShippedLSN(),
			Replicas:        r.Shipper.Replicas(),
			DegradedCommits: r.Shipper.Degraded.Load(),
		}
		if ack := r.Shipper.AckHorizon(); ack != ^uint64(0) {
			v.AckHorizon = ack
			if v.ShippedLSN > ack {
				v.LagBytes = v.ShippedLSN - ack
			}
		}
		if r.Trimmer != nil {
			v.RetainedLog = r.Trimmer.Retained()
			v.LogTrims = r.Trimmer.Trims.Load()
		}
		out = append(out, v)
	}
	if r.Replica != nil {
		v := ReplicationView{
			Role:          "replica",
			DeliveredLSN:  r.Replica.Expected(),
			AppliedLSN:    r.Replica.AppliedLSN(),
			CommitHorizon: r.Replica.CommitHorizon(),
			ReplicaReads:  r.Replica.Reads.Load(),
			OpenTxns:      r.Replica.OpenTxns(),
			Warming:       r.Replica.Warming(),
		}
		if err := r.Replica.Failed(); err != nil {
			v.Failed = err.Error()
		}
		if v.DeliveredLSN > v.AppliedLSN {
			v.ApplyLagBytes = v.DeliveredLSN - v.AppliedLSN
		}
		if rs := r.Replica.RedoStats(); rs.Workers > 0 {
			v.Redo = &rs
		}
		if r.Primary != nil {
			if pc := r.Primary.LastCommitLSN(); pc > v.CommitHorizon {
				v.StalenessBytes = pc - v.CommitHorizon
			}
		}
		out = append(out, v)
	}
	return out
}

// HeapView is one table's heap-ownership statistics.
type HeapView struct {
	OwnedReads         int64 `json:"owned_reads"`
	OwnedReadsLatched  int64 `json:"owned_reads_latched"`
	OwnedWrites        int64 `json:"owned_writes"`
	OwnedWritesLatched int64 `json:"owned_writes_latched"`
	StampedPages       int   `json:"stamped_pages"`
}

// PageCleaningView is the pool's copy-on-write cleaning accounting.
type PageCleaningView struct {
	SnapshotShips    int64 `json:"snapshot_ships"`
	SnapshotCleans   int64 `json:"snapshot_cleans"`
	StampedEvictions int64 `json:"stamped_evictions"`
	DirtyWrites      int64 `json:"dirty_writes"`
}

// RangeView is one routing range.
type RangeView struct {
	Lo   int64 `json:"lo"`
	Hi   int64 `json:"hi"`
	Part int   `json:"part"`
}

// CommitCounter exposes an engine's outcome counters (both engines'
// Committed/Aborted metrics satisfy it via adapters below).
type CommitCounter interface {
	Name() string
	CommittedCount() int64
	AbortedCount() int64
}

// Source bundles what the monitor samples.
type Source struct {
	SM      *sm.SM
	Dora    *dora.Dora      // optional
	Maint   *maint.Daemon   // optional
	Repl    *ReplSource     // optional replication endpoints
	Trace   *trace.Tracer   // optional latency tracer
	Engines []CommitCounter // any number of engines
}

// Sample builds one snapshot; prev (may be nil) supplies deltas for
// throughput computation.
func (s *Source) Sample(prev *Snapshot, dt time.Duration) *Snapshot {
	snap := &Snapshot{At: time.Now(), Routing: map[string][]RangeView{}}
	for i, e := range s.Engines {
		v := EngineView{Name: e.Name(), Committed: e.CommittedCount(), Aborted: e.AbortedCount()}
		if prev != nil && i < len(prev.Engines) && dt > 0 {
			v.Throughput = float64(v.Committed-prev.Engines[i].Committed) / dt.Seconds()
		}
		snap.Engines = append(snap.Engines, v)
	}
	if s.SM != nil {
		if s.SM.CS != nil {
			snap.CS = s.SM.CS.Snapshot()
		}
		snap.BufferHitRate = s.SM.Pool.HitRate()
		ls := s.SM.Log.Stats()
		snap.LogAppends = ls.Appends
		snap.LogForces = ls.Forces
		snap.GroupCommits = ls.GroupedCommits
		for _, tbl := range s.SM.Cat.Tables() {
			hv := HeapView{
				OwnedReads:         tbl.Heap.OwnedReads.Load(),
				OwnedReadsLatched:  tbl.Heap.OwnedReadsLatched.Load(),
				OwnedWrites:        tbl.Heap.OwnedWrites.Load(),
				OwnedWritesLatched: tbl.Heap.OwnedWritesLatched.Load(),
				StampedPages:       tbl.Heap.StampedPages(),
			}
			if hv.OwnedReads == 0 && hv.OwnedWrites == 0 && hv.StampedPages == 0 {
				continue
			}
			if snap.Heaps == nil {
				snap.Heaps = map[string]HeapView{}
			}
			snap.Heaps[tbl.Name] = hv
		}
		pc := PageCleaningView{
			SnapshotShips:    s.SM.Pool.SnapshotShips.Load(),
			SnapshotCleans:   s.SM.Pool.SnapshotCleans.Load(),
			StampedEvictions: s.SM.Pool.StampedEvictions.Load(),
			DirtyWrites:      s.SM.Pool.DirtyWrites.Load(),
		}
		// Present only when the CoW protocol itself ran: plain dirty
		// write-backs alone (conventional engine) are not page cleaning.
		if pc.SnapshotShips+pc.SnapshotCleans+pc.StampedEvictions > 0 {
			snap.PageCleaning = &pc
		}
	}
	if s.Maint != nil {
		st := s.Maint.Snapshot()
		snap.Maint = &st
	}
	if s.Repl != nil {
		snap.Replication = s.Repl.views()
		// Staleness trend: rate of change of the replica's lag against the
		// matching view of the previous snapshot.
		if prev != nil && dt > 0 {
			for i := range snap.Replication {
				v := &snap.Replication[i]
				if v.Role != "replica" {
					continue
				}
				for _, pv := range prev.Replication {
					if pv.Role == "replica" {
						d := int64(v.StalenessBytes) - int64(pv.StalenessBytes)
						v.LagTrendBps = int64(float64(d) / dt.Seconds())
						break
					}
				}
			}
		}
	}
	if sl := s.Trace.Snapshot(); sl != nil && sl.Sampled > 0 {
		snap.StageLatency = sl
	}
	if s.Dora != nil {
		snap.Partitions = s.Dora.PartitionStats()
		ships := s.Dora.ShipSnapshot()
		snap.Ships = &ships
		locks := s.Dora.LockSnapshot()
		snap.Locks = &locks
		for _, tbl := range s.SM.Cat.Tables() {
			rt := s.Dora.Router(tbl.Name)
			if rt == nil {
				continue
			}
			for _, r := range rt.Ranges() {
				snap.Routing[tbl.Name] = append(snap.Routing[tbl.Name],
					RangeView{Lo: r.Lo, Hi: r.Hi, Part: r.Part})
			}
		}
		_, unaligned := s.Dora.AlignmentStats(false)
		if len(unaligned) > 0 {
			snap.Unaligned = map[string]map[string]int64{}
			for id, m := range unaligned {
				if tbl := s.SM.Cat.TableByID(id); tbl != nil {
					snap.Unaligned[tbl.Name] = m
				}
			}
		}
	}
	return snap
}

// Server streams snapshots to TCP clients, one JSON object per line.
type Server struct {
	src    *Source
	every  time.Duration
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// NewServer builds a monitor server sampling at the given period.
func NewServer(src *Source, every time.Duration) *Server {
	if every <= 0 {
		every = time.Second
	}
	return &Server{src: src, every: every, conns: map[net.Conn]struct{}{}, stop: make(chan struct{})}
}

// Listen binds addr (e.g. "127.0.0.1:7070") and starts streaming.
// It returns the bound address (useful with ":0").
func (sv *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	sv.ln = ln
	sv.wg.Add(2)
	go sv.acceptLoop()
	go sv.broadcastLoop()
	return ln.Addr().String(), nil
}

func (sv *Server) acceptLoop() {
	defer sv.wg.Done()
	for {
		c, err := sv.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sv.mu.Lock()
		if sv.closed {
			sv.mu.Unlock()
			c.Close()
			return
		}
		sv.conns[c] = struct{}{}
		sv.mu.Unlock()
	}
}

func (sv *Server) broadcastLoop() {
	defer sv.wg.Done()
	t := time.NewTicker(sv.every)
	defer t.Stop()
	var prev *Snapshot
	last := time.Now()
	for {
		select {
		case <-sv.stop:
			return
		case now := <-t.C:
			snap := sv.src.Sample(prev, now.Sub(last))
			prev, last = snap, now
			line, err := json.Marshal(snap)
			if err != nil {
				continue
			}
			line = append(line, '\n')
			sv.mu.Lock()
			for c := range sv.conns {
				c.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
				if _, err := c.Write(line); err != nil {
					c.Close()
					delete(sv.conns, c)
				}
			}
			sv.mu.Unlock()
		}
	}
}

// Close stops the server and disconnects clients.
func (sv *Server) Close() error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil
	}
	sv.closed = true
	for c := range sv.conns {
		c.Close()
		delete(sv.conns, c)
	}
	sv.mu.Unlock()
	close(sv.stop)
	err := sv.ln.Close()
	sv.wg.Wait()
	return err
}

// ReadSnapshots connects to a monitor server and delivers n snapshots
// (client helper for tools and tests).
func ReadSnapshots(addr string, n int, timeout time.Duration) ([]*Snapshot, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(timeout))
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []*Snapshot
	for len(out) < n && sc.Scan() {
		var s Snapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return out, err
		}
		out = append(out, &s)
	}
	return out, sc.Err()
}

// CounterAdapter adapts any engine with metrics counters to CommitCounter.
type CounterAdapter struct {
	EngineName string
	Committed  *metrics.Counter
	Aborted    *metrics.Counter
}

// Name implements CommitCounter.
func (a CounterAdapter) Name() string { return a.EngineName }

// CommittedCount implements CommitCounter.
func (a CounterAdapter) CommittedCount() int64 { return a.Committed.Load() }

// AbortedCount implements CommitCounter.
func (a CounterAdapter) AbortedCount() int64 {
	if a.Aborted == nil {
		return 0
	}
	return a.Aborted.Load()
}
