package workload

import (
	"math/rand"
	"sync"
	"time"

	"dora/internal/metrics"
	"dora/internal/xct"
)

// AsyncEngine is the slice of an engine the open-loop driver needs: the
// non-blocking transaction entry (dora.Dora.ExecAsync satisfies it).
type AsyncEngine interface {
	ExecAsync(worker int, flow *xct.Flow, done func(error))
}

// OpenLoop is an arrival-rate (open-loop) workload driver: transactions
// arrive by a Poisson process at Rate per second regardless of how many
// are still in flight, bounded only by MaxInFlight — arrivals beyond the
// cap are DROPPED and counted, not queued. Unlike the closed-loop Driver
// (one in-flight transaction per client goroutine, which self-throttles
// at saturation and so can never show queueing delay), an open loop
// exposes latency under overload: when offered load exceeds capacity the
// in-flight population grows to the cap, latency reflects the queueing,
// and the drop rate measures the excess. This is the right instrument
// for "what happens past the knee" experiments (E15's overload row and
// successors).
type OpenLoop struct {
	Engine AsyncEngine
	Mix    Mix
	// Rate is the offered arrival rate in transactions per second.
	Rate float64
	// MaxInFlight caps concurrent transactions (default 1024).
	MaxInFlight int
	// Duration bounds the arrival window; the driver then waits for
	// in-flight transactions to finish.
	Duration time.Duration
	// Seed makes the arrival process and mix draws deterministic.
	Seed int64
}

// OpenResult summarizes an open-loop run.
type OpenResult struct {
	// Offered counts Poisson arrivals. Dropped is the subset refused at
	// the driver's own in-flight cap (the client gave up before
	// submitting). Committed/Aborted partition the remainder.
	Offered   int64
	Dropped   int64
	Committed int64
	Aborted   int64
	Elapsed   time.Duration
	// Throughput is committed transactions per second of the arrival
	// window; AchievedRate = (Offered-Dropped)/window.
	Throughput   float64
	AchievedRate float64
	// Latency of committed transactions, admission to completion.
	LatencyMeanUS float64
	P50US         int64
	P95US         int64
	P99US         int64
}

// Run executes the open-loop workload and blocks until the arrival
// window closes and every admitted transaction completed. A
// non-positive Rate offers nothing and returns an empty result
// immediately (there is no sensible default arrival rate).
func (d *OpenLoop) Run() OpenResult {
	if d.Rate <= 0 {
		return OpenResult{}
	}
	maxIn := d.MaxInFlight
	if maxIn <= 0 {
		maxIn = 1024
	}
	var (
		offered, dropped   metrics.Counter
		committed, aborted metrics.Counter
		lat                metrics.Histogram
		inFlight           sync.WaitGroup
		inFlightN          metrics.Gauge
		rng                = rand.New(rand.NewSource(d.Seed))
		start              = time.Now()
		deadline           = start.Add(d.Duration)
		next               = start
	)
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		// Poisson arrivals: exponential interarrival times. When the
		// driver falls behind wall clock (a burst), arrivals fire
		// back-to-back until it catches up — open-loop pressure is the
		// point, so lag is never absorbed by stretching the schedule.
		if next.After(now) {
			time.Sleep(next.Sub(now))
		}
		next = next.Add(time.Duration(rng.ExpFloat64() / d.Rate * float64(time.Second)))
		offered.Inc()
		if inFlightN.Load() >= int64(maxIn) {
			dropped.Inc()
			continue
		}
		tt := d.Mix.Pick(rng)
		flow := tt.Build(rng)
		t0 := time.Now()
		inFlight.Add(1)
		inFlightN.Add(1)
		d.Engine.ExecAsync(0, flow, func(err error) {
			if err == nil {
				committed.Inc()
				lat.Observe(time.Since(t0))
			} else {
				aborted.Inc()
			}
			inFlightN.Add(-1)
			inFlight.Done()
		})
	}
	window := time.Since(start)
	inFlight.Wait()

	res := OpenResult{
		Offered:       offered.Load(),
		Dropped:       dropped.Load(),
		Committed:     committed.Load(),
		Aborted:       aborted.Load(),
		Elapsed:       time.Since(start),
		LatencyMeanUS: lat.MeanMicros(),
		P50US:         lat.Quantile(0.50),
		P95US:         lat.Quantile(0.95),
		P99US:         lat.Quantile(0.99),
	}
	if s := window.Seconds(); s > 0 {
		res.Throughput = float64(res.Committed) / s
		res.AchievedRate = float64(res.Offered-res.Dropped) / s
	}
	return res
}
