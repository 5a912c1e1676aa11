// Package dora is a from-scratch Go reproduction of "A Data-oriented
// Transaction Execution Engine and Supporting Tools" (Pandis et al.,
// SIGMOD 2011): the DORA thread-to-data OLTP engine, the conventional
// thread-to-transaction baseline, the Shore-MT-like storage-manager
// substrate they share (buffer pool, B+trees, WAL + ARIES-style
// recovery, hierarchical lock manager), the dynamic load balancer and
// alignment advisor, the designer tools (flow-graph generation from
// SQL-ish specs, physical-design advice), the live monitor, and the
// TATP / TPC-C / TPC-B workloads.
//
// Beyond the paper it grows the prototype toward the authors' follow-on
// work: a consolidation-array log manager with flush pipelining and
// early lock release (internal/wal/clog, experiment E11), a
// physiologically partitioned access path (internal/btree's
// PartitionedTree, PLP-style: per-partition B+tree subtrees owned by
// DORA's workers, making owner-thread index descents latch-free —
// experiment E12), and background physical maintenance (internal/maint,
// experiment E13): heap pages are stamped with their owner's token so
// aligned record reads skip the buffer-frame latch, and a paced daemon —
// running its operations on the owning workers' threads via the inbox
// path — migrates or re-stamps the pages that splits and merges
// orphaned and compacts decayed subtrees, keeping the physical layout
// converged with the routing topology. The original DORA caveat that
// "latching remains" is thereby retired class by class: owner-thread
// index descents take no node latches, and frame latches on aligned
// reads converge to zero as maintenance drains.
//
// The write side of that class is retired too (experiment E15): owner
// mutations of stamped pages are latch-free by construction
// (storage.Heap's UpdateOwnedWith/DeleteOwnedWith/MutateOwnedWith and
// latch-free owner inserts), because page cleaning is owner-coordinated
// copy-on-write — the buffer pool never latches a stamped dirty frame:
// its one write-back routine, behind the flush daemon (buffer.Cleaner)
// and checkpoint FlushAll, ships a snapshot request through the owning
// worker's inbox, the owner copies the page at a quiescent point of its
// own thread (a consistent image at a known LSN), and the requester
// hardens the copy — WAL forced to the copy's LSN first — while the
// owner keeps mutating the live frame; eviction leaves such a frame to
// the daemon. A per-frame write-sequence counter, bumped with
// release semantics before every byte mutation, replaces the latch for
// conflict detection: the hardened copy clears the dirty bit only when
// no mutation raced it (a double-checked clear). Eviction skips stamped
// frames (a worker's hot set) while unstamped candidates exist and can
// drop only CLEAN stamped frames when forced. A page has at most one
// frame (Effelsberg & Härder's buffer invariant): each frame carries a
// state word — free, loading, resident, evicting — changed under its
// shard mutex, so a dirty victim keeps its mapping while its evictor
// writes it back (a Fetch of the page pins it and cancels the eviction)
// and a Fetch miss re-checks the table after that write-back. Unstamped
// pages are written under the shared frame latch, but the WAL force
// before the write runs with the latch released and the page LSN is
// re-checked after it, so no writer of a page waits out a log sync; one
// harden step (stale-copy check, force, write, dirty clear) ends every
// write-back. Crash recovery is
// exactly-once whether the crash lands mid-snapshot or mid-write-back:
// the on-disk image is always a consistent page at a known LSN and
// ARIES redo-skip does the rest. The open-loop arrival-rate driver
// (workload.OpenLoop over dora.ExecAsync: Poisson arrivals, bounded
// in-flight cap, drop and latency accounting) measures behaviour past
// the saturation knee.
//
// Cross-partition execution is asynchronous end to end (experiment
// E14): a foreign operation ships to its owner together with a
// continuation instead of parking the sender, action bodies SUSPEND on
// foreign logical ops (xct.Env.Async + the Session's *Async operations)
// while their worker keeps draining its inbox, the flow-graph executor
// advances phases purely by rendezvous-point countdowns
// (dora.ExecAsync), and abort compensation rides the same path
// (sm.RollbackAsync). Every hop to an owner's thread is one message
// shape, a ship whose reply is a continuation: it comes home through the
// sender's inbox, or wakes a caller that is not a worker (a plain
// session, the maintenance daemon, the page cleaner) parked on it. A
// worker's inbox carries six message types — actions, lock releases,
// lock-state adoption, control steps, ships and continuations — and a
// retiring worker disposes each by one rule: ships fail back to be
// re-resolved, everything else is forwarded. No worker is ever parked
// on a ship, so arbitrary action bodies are deadlock-safe by
// construction.
//
// Replication (internal/repl, experiment E16) turns the group-commit
// log into a replication stream: the clog flush daemon's hardened group
// extents ship — in LSN order, over in-process or TCP links — to
// replicas that append them to their own log and replay them through
// the recovery-redo machinery into a live engine. Commit rules ride the
// commit pipeline: asynchronous shipping by default, or semi-sync K-ack
// where each commit waits until K replicas have replayed it (degrading,
// counted, when replicas die rather than wedging). Read replicas serve
// read-only sessions at their hardened commit horizon — bounded
// staleness, measured in log bytes — via repl.ReadEngine; promotion
// rolls back in-flight losers with CLRs (a commit record is its
// transaction's last) and brings the replica up writable, with the old
// primary's divergent tail truncated (wal.TruncateTail) before it
// rejoins. A trimmer daemon (sm.Trimmer) checkpoints and truncates the
// WAL prefix under min(checkpoint redo, oldest active transaction,
// slowest replica's acked LSN), so retention stays bounded while
// replicas stream. Unaligned actions resolve their routing fields
// asynchronously too (xct.Action.ResolveAsync): phase dispatch suspends
// on resolver probes like action bodies do, keeping the coordinator
// unparked; a merge that retires a resolved owner before the phase is
// enqueued makes the enqueue re-resolve rather than strand the action.
//
// The backward paths are partitioned too (experiment E17): crash-
// recovery redo and replica streaming apply share a partition-parallel
// redo pipeline (sm.Options.RedoWorkers / repl.Options.RedoWorkers). A
// dispatcher scans records in LSN order and keeps everything global —
// committed-prefix admission, checkpoint attachments, transaction
// resolutions, index maintenance, commit-horizon advancement — while
// physical records fan out to applier workers sharded by page ID; each
// applier drains a FIFO, so per-page LSN order (the redo-skip
// idempotence invariant) holds by construction while distinct pages
// redo concurrently, and the dispatcher consumes completions through a
// reorder buffer in dispatch order. Replica delivery syncs the pool at
// each extent boundary inside the state lock, so bounded-staleness
// readers still observe only extent-consistent states; any applier
// error fail-stops the whole pool; promotion drains and retires it
// before the serial winner/loser pass. Undo orders losers
// deterministically, so parallel recovery is byte-for-byte identical to
// serial — E17 asserts that digest equality at 1/2/4/8 appliers and
// races a serial against a parallel replica on one shipped stream.
// Buffer-pool write-back pipelines its owner-coordinated snapshot ships
// the same way — checkpoint FlushAll, the cleaner's paced sweep and its
// eviction hints alike: all stamped frames' ships go out at once and the
// copies harden from a completion queue, so checkpoint latency stops
// scaling with owner count.
//
// Observability (experiment E18) closes the loop on all of it: an
// always-on sampled latency tracer (internal/trace) follows one
// transaction in N end to end — admission, queue wait, execution,
// suspends, ships, log reserve/fill, the flush-hardening wait, early
// lock release, semi-sync ack waits, and
// replica delivery/apply — recording spans on per-worker lock-free
// rings (drop-on-full, never a stall) that an aggregator drains into
// per-stage power-of-two histograms. The monitor snapshot carries the
// per-stage decomposition with traced end-to-end quantiles and a
// span-coverage percentage; monitor.ListenHTTP serves it pull-style as
// Prometheus text exposition on /metrics (dependency-free) alongside
// /snapshot JSON and the explicitly wired /debug/pprof profiles; and
// traced transactions past a slow threshold emit their full span tree
// as one JSON line. The parallel-redo pool feeds the same stats back
// into itself: with AdaptiveRedo set, the dispatcher resizes the
// applier pool from windowed queue-depth averages, only at barrier
// points where the drained queues make the page remap order-safe. E18
// verifies the decomposition (stage sum ≈ traced p50, queue_wait — not
// exec — grows past the saturation knee) and the sampling cost (<2%
// throughput, measured drift-robustly in alternating windows).
//
// See README.md for the package tour, quickstart, and the experiment
// index. The packages live under internal/; the runnable entry points
// are the examples/ programs and the cmd/ tools.
package dora
