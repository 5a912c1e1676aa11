package dora

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"dora/internal/metrics"
)

// Ship-graph discipline checking (debug mode, Config.DebugShipCheck).
//
// Every owner-thread ship is a shipMsg; its parked flag says whether the
// sender waits for the reply (shipWait). A PARKED ship executes on the
// owner's thread while its sender sits in a channel receive, so a chain
// of parked ships must stay acyclic: an operation on worker A whose
// shipped work on worker B ships back to A deadlocks — A waits for B, B
// waits for A to drain. Workers never park on their own ships (action
// bodies use continuations); parked chains arise only from non-worker
// senders and from maintenance operations that nest ExecOnOwner. A
// CONTINUATION ship parks nobody: the sender keeps draining its inbox
// while the operation is in flight, so a chain that revisits it merely
// round-trips messages.
//
// The detector therefore tracks, per worker goroutine, the chain of
// workers the currently-executing shipped operation has traveled AND
// whether each of them is parked (its outbound hop was a parked ship) —
// every shipMsg carries the chain. A ship targeting a worker that is
// parked on this very chain fails fast with a diagnostic panic BEFORE
// the message is enqueued (it would deadlock: the target cannot drain);
// the resulting shipCycleError travels back in the reply's cyc field and
// unwinds the chain hop by hop (each parked sender re-panics after its
// reply arrives), so it surfaces at the origin of the cyclic operation.
// A ship targeting a worker that is in the chain but NOT parked —
// possible only via continuation hops — is diagnosed (counted, recorded
// for the monitor) and allowed to proceed: cycles cannot wedge a
// non-blocking sender.
//
// Chains cover the ships of one operation in flight; a suspended
// action's RESUME starts a fresh chain. That is sound, not a gap: by
// the time a continuation runs, every hop of the completed operation
// has delivered and parks nobody, so there is nothing left for a later
// ship to deadlock against (multi-hop revisits across a resume are
// simply new acyclic chains).

// shipHop is one traversed worker in a ship chain. parked records
// whether the hop OUT of this worker was blocking — i.e. whether the
// worker is sitting in a channel receive until the chain's deeper hops
// complete (and therefore cannot drain its inbox).
type shipHop struct {
	worker int
	parked bool
}

// shipCycleError is the diagnostic for a cyclic ship.
type shipCycleError struct {
	path   []shipHop // workers traversed, origin first, sender last
	target int       // the worker the offending ship addressed
}

func (e *shipCycleError) Error() string {
	var b bytes.Buffer
	b.WriteString("dora: cyclic owner-thread ship: ")
	for _, h := range e.path {
		fmt.Fprintf(&b, "worker %d -> ", h.worker)
	}
	fmt.Fprintf(&b, "worker %d (already in the chain); ", e.target)
	b.WriteString("a blocking ship cycle deadlocks — " +
		"keep the ship graph acyclic, route the access through the owning partition, " +
		"or use continuation ships (which cannot wedge)")
	return b.String()
}

// shipFrame is one worker goroutine's detector state. path is written
// only by that goroutine (while it executes a shipped message) and read
// only by it (when it ships onward), so it needs no lock; the detector
// map that finds the frame does.
type shipFrame struct {
	worker int
	path   []shipHop
}

type shipDetector struct {
	mu     sync.RWMutex
	frames map[int64]*shipFrame

	// Cycles counts diagnosed (non-fatal) cycles; lastCycle keeps the
	// most recent diagnostic for the monitor.
	Cycles    metrics.Counter
	lastMu    sync.Mutex
	lastCycle string
}

func newShipDetector() *shipDetector {
	return &shipDetector{frames: make(map[int64]*shipFrame)}
}

// diagnose records a non-fatal cycle detection.
func (d *shipDetector) diagnose(ce *shipCycleError) {
	d.Cycles.Inc()
	d.lastMu.Lock()
	d.lastCycle = ce.Error()
	d.lastMu.Unlock()
}

// LastCycle returns the most recent non-fatal cycle diagnostic ("" when
// none was ever recorded).
func (d *shipDetector) LastCycle() string {
	d.lastMu.Lock()
	defer d.lastMu.Unlock()
	return d.lastCycle
}

// register installs a frame for the calling worker goroutine.
func (d *shipDetector) register(worker int) *shipFrame {
	fr := &shipFrame{worker: worker}
	id := goid()
	d.mu.Lock()
	d.frames[id] = fr
	d.mu.Unlock()
	return fr
}

// unregister removes the calling goroutine's frame.
func (d *shipDetector) unregister() {
	id := goid()
	d.mu.Lock()
	delete(d.frames, id)
	d.mu.Unlock()
}

// current returns the calling goroutine's frame, or nil when the caller
// is not a partition worker (clients, the log's flush goroutine,
// maintenance).
func (d *shipDetector) current() *shipFrame {
	id := goid()
	d.mu.RLock()
	fr := d.frames[id]
	d.mu.RUnlock()
	return fr
}

// extendPath computes the ship path for a message the calling goroutine
// is about to send to target: the chain it is executing on behalf of,
// plus itself with the parked flag of the hop it is about to make
// (blocking = the caller will park until the ship completes). When
// target is already in that chain AND parked there, it panics with a
// shipCycleError — BEFORE the message is enqueued, so nothing
// deadlocks. A cycle through only non-parked (continuation) hops is
// diagnosed and allowed.
func (d *shipDetector) extendPath(target int, blocking bool) []shipHop {
	fr := d.current()
	if fr == nil {
		return nil // fresh chain: first hop, nothing to cycle with
	}
	base := make([]shipHop, 0, len(fr.path)+1)
	base = append(base, fr.path...)
	base = append(base, shipHop{worker: fr.worker, parked: blocking})
	cyclic := false
	for _, h := range base {
		if h.worker == target {
			cyclic = true
			if h.parked {
				panic(&shipCycleError{path: base, target: target})
			}
		}
	}
	if cyclic {
		d.diagnose(&shipCycleError{path: base, target: target})
	}
	return base
}

// runShip executes a shipped operation under the detector: the worker's
// frame carries the message's path for the duration, and a
// shipCycleError panicking out of the body (a deeper hop detected the
// cycle) is captured in m.cyc for the sender to re-raise — hop-by-hop
// unwinding that lands the diagnostic at the chain's origin. Other
// panics pass through untouched.
func (p *partition) runShip(m *shipMsg) {
	if p.eng.shipDet == nil || p.frame == nil {
		m.fn(p.token)
		return
	}
	p.frame.path = m.path
	defer func() {
		p.frame.path = nil
		if r := recover(); r != nil {
			ce, ok := r.(*shipCycleError)
			if !ok {
				panic(r)
			}
			m.cyc = ce
		}
	}()
	m.fn(p.token)
}

// goid parses the current goroutine id from the stack header ("goroutine
// 123 [running]: ..."). Debug-mode only: the detector is the sole user.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(string(s), 10, 64)
	return id
}
