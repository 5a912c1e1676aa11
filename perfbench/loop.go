package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dora/internal/sm"
	"dora/internal/workload/tpcc"
)

// maxOpenInflight bounds the open loop's backlog; arrivals beyond it are
// refused (never submitted).
const maxOpenInflight = 20000

// outcome classifies a finished transaction. Nothing is retried.
type outcome uint8

const (
	committed  outcome = iota + 1 // committed
	rolledBack                    // rolled back as the transaction's spec requires
	failed                        // any other error, dora.ErrLocalTimeout included
	refused                       // open loop only: never submitted, backlog full
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return committed
	case errors.Is(err, sm.ErrNotFound), errors.Is(err, sm.ErrDuplicate), errors.Is(err, tpcc.ErrInvalidItem):
		return rolledBack
	}
	return failed
}

// window is the result of one measured interval.
type window struct {
	dur, elapsed time.Duration // nominal length; time to the last completion
	// attempted counts submitted transactions; completed = committed +
	// rolled back; failed the rest. refused counts open-loop arrivals the
	// backlog bound turned away (never submitted).
	attempted, completed, failed, refused int64
	// lat holds every completed transaction's latency in ns: from its due
	// time in an open loop, from submit in a closed loop. at holds, at the
	// same index, when that due time or submit was, in ns from the start.
	lat, at []int64
	// inflightMax is the largest number of transactions in flight.
	inflightMax int64
	firstErr    error
	// stuck says some transaction never finished: the engine is wedged.
	stuck bool
}

// runner drives one instance.
type runner struct {
	in    *instance
	rng   *rand.Rand
	seed  int64
	spans *spanLog // nil: untraced
	seq   atomic.Uint64
	// windows counts closed-loop windows run so far.
	windows int
	// committed counts committed transactions per kind over every window
	// of the run, for the correctness check.
	committed []atomic.Int64
}

func newRunner(in *instance, seed int64, spans *spanLog) *runner {
	return &runner{
		in: in, rng: rand.New(rand.NewSource(seed)), seed: seed, spans: spans,
		committed: make([]atomic.Int64, len(in.kinds)),
	}
}

// finish records a transaction's outcome.
func (r *runner) finish(kind int, o outcome) {
	if o == committed {
		r.committed[kind].Add(1)
	}
}

func (r *runner) committedCounts() []int64 {
	out := make([]int64, len(r.committed))
	for i := range out {
		out[i] = r.committed[i].Load()
	}
	return out
}

// finishTimeout bounds the wait for a window's transactions past its end:
// far above the engine's 2 s local lock timeout, so only a lost
// completion reaches it.
const finishTimeout = 60 * time.Second

// waitAll waits for wg for at most d, reporting whether it finished.
func waitAll(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

func stuckWindow(dur time.Duration) window {
	return window{dur: dur, stuck: true, firstErr: fmt.Errorf("transactions still unfinished %v after the window", finishTimeout)}
}

// sleepUntil blocks until at ns after start. It sleeps in nanosleep, which
// overshoots by tens of µs instead of the ~1 ms a sub-millisecond
// time.Sleep can cost.
func sleepUntil(start time.Time, at int64) {
	for {
		d := at - int64(time.Since(start))
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// openWindow offers Poisson arrivals at rate for dur from one generator
// goroutine and waits until every submitted transaction has finished.
func (r *runner) openWindow(rate float64, dur time.Duration) window {
	n := int(rate*dur.Seconds()*1.5) + 64
	due := make([]int64, 0, n)
	lat := make([]int64, n)
	res := make([]outcome, n)
	w := window{dur: dur}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	var errOnce sync.Once

	runtime.LockOSThread()
	start := time.Now()
	at := 0.0
	for {
		at += r.rng.ExpFloat64() / rate * 1e9
		if at >= float64(dur) || len(due) == n {
			break
		}
		dueNS := int64(at)
		sleepUntil(start, dueNS)
		i := len(due)
		due = append(due, dueNS)
		if inflight.Load() >= maxOpenInflight {
			res[i] = refused
			w.refused++
			continue
		}
		flow, kind := r.in.next(r.rng)
		id := r.seq.Add(1)
		if r.spans != nil {
			r.spans.wrapFlow(flow, id)
		}
		submit := int64(time.Since(start))
		if r.spans != nil {
			base := int64(start.Sub(r.spans.epoch))
			r.spans.add(span{kind: spanLate, txn: id, start: base + dueNS, end: base + submit})
		}
		w.inflightMax = max(w.inflightMax, inflight.Add(1))
		wg.Add(1)
		r.in.eng.ExecAsync(0, flow, func(err error) {
			end := int64(time.Since(start))
			o := classify(err)
			lat[i], res[i] = end-dueNS, o
			if o == failed {
				errOnce.Do(func() { w.firstErr = err })
			}
			if r.spans != nil {
				base := int64(start.Sub(r.spans.epoch))
				r.spans.add(span{kind: spanTxn, txn: id, start: base + submit, end: base + end})
			}
			r.finish(kind, o)
			inflight.Add(-1)
			wg.Done()
		})
	}
	runtime.UnlockOSThread()
	if !waitAll(&wg, finishTimeout) {
		return stuckWindow(dur)
	}
	w.elapsed = time.Since(start)
	for i := range due {
		switch res[i] {
		case committed, rolledBack:
			w.completed++
			w.lat = append(w.lat, lat[i])
			w.at = append(w.at, due[i])
		case failed:
			w.failed++
		}
	}
	w.attempted = int64(len(due)) - w.refused
	return w
}

// closedWindow runs clients closed-loop clients for dur: each submits its
// next transaction when the previous one finishes.
func (r *runner) closedWindow(clients int, dur time.Duration) window {
	type clientResult struct {
		lat, at                      []int64
		attempted, completed, failed int64
		firstErr                     error
	}
	results := make([]clientResult, clients)
	r.windows++ // each window's clients draw fresh, seed-determined streams
	win := int64(r.windows)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := &results[c]
			rng := rand.New(rand.NewSource(r.seed*7919 + win*131 + int64(c)))
			prevEnd := int64(-1) // span clock at the previous completion
			for time.Since(start) < dur {
				flow, kind := r.in.next(rng)
				id := r.seq.Add(1)
				if r.spans != nil {
					r.spans.wrapFlow(flow, id)
				}
				t0 := r.spans.now()
				if prevEnd >= 0 {
					// A closed-loop client is due when its previous
					// transaction finished.
					r.spans.add(span{kind: spanLate, txn: id, start: prevEnd, end: t0})
				}
				begin := time.Now()
				err := r.in.eng.Exec(c, flow)
				d := int64(time.Since(begin))
				prevEnd = r.spans.now()
				r.spans.add(span{kind: spanTxn, txn: id, start: t0, end: prevEnd})
				o := classify(err)
				r.finish(kind, o)
				cr.attempted++
				if o == failed {
					cr.failed++
					if cr.firstErr == nil {
						cr.firstErr = err
					}
					continue
				}
				cr.completed++
				cr.lat = append(cr.lat, d)
				cr.at = append(cr.at, int64(begin.Sub(start)))
			}
		}(c)
	}
	if !waitAll(&wg, dur+finishTimeout) {
		return stuckWindow(dur)
	}
	w := window{dur: dur, elapsed: time.Since(start), inflightMax: int64(clients)}
	for _, cr := range results {
		w.attempted += cr.attempted
		w.completed += cr.completed
		w.failed += cr.failed
		w.lat = append(w.lat, cr.lat...)
		w.at = append(w.at, cr.at...)
		if w.firstErr == nil {
			w.firstErr = cr.firstErr
		}
	}
	return w
}

// intervalP99 splits the window into intervals of every by due (or
// submit) time and returns the median of the intervals' p99 latencies in
// ns, with the number of intervals. A stall of the shared machine then
// moves one interval's p99, not the reported figure.
func (w window) intervalP99(every time.Duration) (int64, int) {
	buckets := map[int64][]int64{}
	for i, at := range w.at {
		k := at / int64(every)
		buckets[k] = append(buckets[k], w.lat[i])
	}
	var p99s []int64
	for _, b := range buckets {
		p99s = append(p99s, quantile(b, 0.99))
	}
	return quantile(p99s, 0.5), len(p99s)
}

// intervalRate returns the median, over the window's whole intervals of
// every, of the transactions completed per second among those due (or
// submitted) in the interval. A stall then lowers one interval's count,
// not the reported rate.
func (w window) intervalRate(every time.Duration) float64 {
	counts := make([]int64, int(w.dur/every))
	for _, at := range w.at {
		if k := int(at / int64(every)); k < len(counts) {
			counts[k]++
		}
	}
	return float64(quantile(counts, 0.5)) / every.Seconds()
}
