package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/xct"
)

// Span kinds. Every span of one transaction carries the transaction's
// sequence number; its spanTxn span is the parent of the others.
const (
	spanTxn       uint8 = iota + 1 // submit → completion callback
	spanLate                       // due → submit (open-loop generator lateness)
	spanAction                     // one run of an action body; arg = phase
	spanSync                       // wal.Store.Sync; arg = bytes hardened
	spanDiskRead                   // buffer.Disk.ReadPage
	spanDiskWrite                  // buffer.Disk.WritePage
)

// span is one timed interval, in nanoseconds since the log's epoch.
type span struct {
	kind       uint8
	arg        uint32
	txn        uint64 // 0 for spans outside a transaction
	start, end int64
}

const spanBytes = 1 + 4 + 8 + 8 + 8

// spanLog keeps spans in memory while recording is on. A nil *spanLog is
// the untraced run: it records nothing and reads no clock.
type spanLog struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.epoch))
}

func (l *spanLog) add(s span) {
	if l == nil || !l.on.Load() {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// wrapFlow times every action body of flow as a span of transaction txn.
// A body that suspends on a cross-partition operation is timed up to its
// suspension only.
func (l *spanLog) wrapFlow(flow *xct.Flow, txn uint64) {
	for ph := range flow.Phases {
		for _, a := range flow.Phases[ph].Actions {
			run, phase := a.Run, uint32(ph)
			a.Run = func(env *xct.Env) error {
				start := l.now()
				err := run(env)
				l.add(span{kind: spanAction, arg: phase, txn: txn, start: start, end: l.now()})
				return err
			}
		}
	}
}

// writeFile writes every recorded span to path in a fixed little-endian
// layout (kind u8, arg u32, txn u64, start i64, end i64).
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var b [spanBytes]byte
	l.mu.Lock()
	for _, s := range l.spans {
		b[0] = s.kind
		binary.LittleEndian.PutUint32(b[1:], s.arg)
		binary.LittleEndian.PutUint64(b[5:], s.txn)
		binary.LittleEndian.PutUint64(b[13:], uint64(s.start))
		binary.LittleEndian.PutUint64(b[21:], uint64(s.end))
		if _, err := w.Write(b[:]); err != nil {
			l.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a file written by writeFile.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var out []span
	var b [spanBytes]byte
	for {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("read spans: %w", err)
		}
		out = append(out, span{
			kind:  b[0],
			arg:   binary.LittleEndian.Uint32(b[1:]),
			txn:   binary.LittleEndian.Uint64(b[5:]),
			start: int64(binary.LittleEndian.Uint64(b[13:])),
			end:   int64(binary.LittleEndian.Uint64(b[21:])),
		})
	}
}

// spanStats is what the per-layer metrics take from a span file.
type spanStats struct {
	late, dispatch, action, rvp, commit []int64 // per transaction, ns
	latency                             []int64 // per transaction: due (open loop) or submit → completion
	syncs, diskIO                       []int64 // per call, ns
	syncBytes                           int64
	diskReads, diskWrites               int
}

// analyze derives per-transaction stage times from spans. open says the
// lateness spans start at due times (an open loop); a closed loop's
// start at the client's previous completion. For each transaction:
// latency = completion − due (open loop) or − submit; dispatch = first
// body start − submit; action = summed body time; rvp = summed gaps
// between the last body end of a phase and the first body start of the
// next (multi-phase transactions only); commit = completion − last body
// end.
func analyze(spans []span, open bool) spanStats {
	type txnAgg struct {
		submit, done, due  int64
		first, last        int64
		bodies             int64
		phaseLo, phaseHi   map[uint32]int64
		maxPhase           uint32
		hasTxn, hasActions bool
		hasDue             bool
	}
	txns := map[uint64]*txnAgg{}
	get := func(id uint64) *txnAgg {
		a := txns[id]
		if a == nil {
			a = &txnAgg{}
			txns[id] = a
		}
		return a
	}
	var st spanStats
	for _, s := range spans {
		d := s.end - s.start
		switch s.kind {
		case spanLate:
			st.late = append(st.late, d)
			if open {
				a := get(s.txn)
				a.due, a.hasDue = s.start, true
			}
		case spanTxn:
			a := get(s.txn)
			a.submit, a.done, a.hasTxn = s.start, s.end, true
		case spanAction:
			a := get(s.txn)
			if !a.hasActions || s.start < a.first {
				a.first = s.start
			}
			if !a.hasActions || s.end > a.last {
				a.last = s.end
			}
			a.hasActions = true
			a.bodies += d
			if a.phaseLo == nil {
				a.phaseLo, a.phaseHi = map[uint32]int64{}, map[uint32]int64{}
			}
			if lo, ok := a.phaseLo[s.arg]; !ok || s.start < lo {
				a.phaseLo[s.arg] = s.start
			}
			if hi, ok := a.phaseHi[s.arg]; !ok || s.end > hi {
				a.phaseHi[s.arg] = s.end
			}
			a.maxPhase = max(a.maxPhase, s.arg)
		case spanSync:
			st.syncs = append(st.syncs, d)
			st.syncBytes += int64(s.arg)
		case spanDiskRead:
			st.diskIO = append(st.diskIO, d)
			st.diskReads++
		case spanDiskWrite:
			st.diskIO = append(st.diskIO, d)
			st.diskWrites++
		}
	}
	for _, a := range txns {
		if !a.hasTxn {
			continue
		}
		from := a.submit
		if a.hasDue {
			from = a.due
		}
		st.latency = append(st.latency, a.done-from)
		if !a.hasActions {
			continue
		}
		st.dispatch = append(st.dispatch, a.first-a.submit)
		st.action = append(st.action, a.bodies)
		st.commit = append(st.commit, a.done-a.last)
		if a.maxPhase > 0 {
			var gap int64
			for ph := uint32(0); ph < a.maxPhase; ph++ {
				hi, ok1 := a.phaseHi[ph]
				lo, ok2 := a.phaseLo[ph+1]
				if ok1 && ok2 && lo > hi {
					gap += lo - hi
				}
			}
			st.rvp = append(st.rvp, gap)
		}
	}
	return st
}
