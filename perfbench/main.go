// Command perfbench is the repository's benchmark: it drives the DORA
// engine with one named workload (tatp-open and tpcb-durable are gated),
// checks the database invariant afterwards, and prints every metric by
// name with its unit, then one JSON result line. An untraced run
// (-trace 0) reports the end-to-end metrics; a traced run (-trace 1) the
// per-layer ones. See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dora/internal/metrics"
)

// An untraced run loads its database at least setups times, and until
// the loads took minSetupTime, to report the median set-up time; the last
// instance is the one measured.
const (
	setups       = 7
	minSetupTime = 3 * time.Second
	maxSetups    = 40
)

// gated names the end-to-end metrics BENCHMARK.json bounds; the untraced
// run prints the others as comment lines. README.md gives the measured
// spread that kept each of the others out.
var gated = map[string]bool{"setup_s": true, "allocs_per_txn": true, "log_bytes_per_txn": true, "heap_mb": true}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "tatp-open, tpcb-durable, tpcc, tpcb-overload or tpcc-4clients")
	seed := flag.Int64("seed", 1, "seed of the generated transaction stream")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".", "directory for the span file of a traced run")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *name)
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = traced(wl, *seed, dur, *out)
	} else {
		res, err = untraced(wl, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, n := range sortedNames(res.Metrics) {
		fmt.Printf("%-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setUp loads the workload's database at least n times and until the
// loads took minTotal together (at most maxSetups times), keeping the
// last instance, and returns it with the median set-up time in seconds.
func setUp(wl workloadDef, tr *traceCfg, n int, minTotal time.Duration) (*instance, float64, error) {
	var times []float64
	var total float64
	var in *instance
	for i := 0; i < maxSetups && (i < n || total < minTotal.Seconds()); i++ {
		if in != nil {
			in.close()
			in = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		in, err = wl.setup(tr)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[len(times)-1]
	}
	runtime.GC()
	if in.afterSetup != nil {
		if err := in.afterSetup(); err != nil {
			in.close()
			return nil, 0, err
		}
	}
	sort.Float64s(times)
	return in, times[len(times)/2], nil
}

func (w window) requireCompleted() error {
	if w.stuck {
		return w.firstErr
	}
	if w.completed == 0 {
		if w.firstErr != nil {
			return fmt.Errorf("no transaction completed: %w", w.firstErr)
		}
		return errors.New("no transaction completed")
	}
	return nil
}

// runWindow is one warmed-up measured window with its resource cost.
type runWindow struct {
	warm, w                 window
	cpuUS, allocs, logBytes float64 // per completed transaction
}

// measured runs a warm-up of a tenth of dur, then the measured window of
// dur. around, if set, is called just before the window starts (true) and
// just after it ends (false), outside the measured resource use.
func measured(r *runner, wl workloadDef, dur time.Duration, around func(start bool)) (runWindow, error) {
	var rw runWindow
	if wl.open {
		rw.warm = r.openWindow(wl.rate, dur/10)
	} else {
		rw.warm = r.closedWindow(wl.clients, dur/10)
	}
	runtime.GC()
	if around != nil {
		around(true)
	}
	cpu0, mem0, log0 := cpuTime(), mallocs(), r.in.store.written.Load()
	if wl.open {
		rw.w = r.openWindow(wl.rate, dur)
	} else {
		rw.w = r.closedWindow(wl.clients, dur)
	}
	cpu1, mem1, log1 := cpuTime(), mallocs(), r.in.store.written.Load()
	if around != nil {
		around(false)
	}
	if rw.warm.stuck {
		return rw, rw.warm.firstErr
	}
	if err := rw.w.requireCompleted(); err != nil {
		return rw, err
	}
	n := float64(rw.w.completed)
	rw.cpuUS = float64((cpu1 - cpu0).Microseconds()) / n
	rw.allocs = float64(mem1-mem0) / n
	rw.logBytes = float64(log1-log0) / n
	return rw, nil
}

// untraced measures the end-to-end metrics.
func untraced(wl workloadDef, seed int64, dur time.Duration) (result, error) {
	in, setupS, err := setUp(wl, nil, setups, minSetupTime)
	if err != nil {
		return result{}, err
	}
	r := newRunner(in, seed, nil)
	rw, err := measured(r, wl, dur, nil)
	if err != nil {
		return result{}, err // the process exits; a wedged engine would not close
	}
	// The log device is modeled in memory; its bytes are not engine heap.
	heap := liveHeapMiB() - float64(in.store.held.Load())/(1<<20)
	w := rw.w
	attempted, failed := rw.warm.attempted+w.attempted, rw.warm.failed+w.failed
	report, cerr := finishCheck(r)
	p99, intervals := w.intervalP99(time.Second)
	fmt.Printf("# %s: %d completed in %.3fs, %d failed; check: %s\n",
		wl.name, w.completed, w.elapsed.Seconds(), w.failed, report)
	for _, e := range []error{rw.warm.firstErr, w.firstErr} {
		if e != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", wl.name, e)
			break
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	all := map[string]metric{
		"setup_s":           {setupS, "s"},
		"p50_ms":            {ms(quantile(w.lat, 0.50)), "ms"},
		"p99_ms":            {ms(p99), "ms"},
		"failed_ratio":      {float64(failed) / float64(attempted), "1"},
		"cpu_us_per_txn":    {rw.cpuUS, "us"},
		"allocs_per_txn":    {rw.allocs, "1"},
		"log_bytes_per_txn": {rw.logBytes, "B"},
		"heap_mb":           {heap, "MiB"},
	}
	if !wl.open {
		all["tps"] = metric{w.intervalRate(time.Second), "txn/s"}
	}
	fmt.Printf("# latency over %d samples; p99_ms is the median of %d 1-s interval p99s (whole window: %.4f ms)\n",
		len(w.lat), intervals, ms(quantile(w.lat, 0.99)))
	res := result{Correct: cerr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, n := range sortedNames(all) {
		if gated[n] {
			res.Metrics[n] = all[n]
		} else {
			fmt.Printf("# %-30s %14.4f %s (not gated)\n", n, all[n].Value, all[n].Unit)
		}
	}
	if cerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", wl.name, cerr)
	}
	return res, nil
}

// finishCheck stops the engine and runs the workload's invariant check.
func finishCheck(r *runner) (string, error) {
	_ = r.in.eng.Close()
	report, err := r.in.check(r.committedCounts())
	_ = r.in.s.Log.Close()
	return report, err
}

// baseline runs the untraced window of a traced run on its own instance,
// which it checks and drops, and reports whether the check passed.
func baseline(wl workloadDef, seed int64, dur time.Duration) (runWindow, bool, error) {
	in, _, err := setUp(wl, nil, 1, 0)
	if err != nil {
		return runWindow{}, false, err
	}
	r := newRunner(in, seed, nil)
	rw, err := measured(r, wl, dur, nil)
	if err != nil {
		return runWindow{}, false, err
	}
	report, cerr := finishCheck(r)
	fmt.Printf("# %s baseline: %d completed, %d failed; check: %s\n", wl.name, rw.w.completed, rw.w.failed, report)
	if cerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", wl.name, cerr)
	}
	return rw, cerr == nil, nil
}

// traced measures the per-layer metrics: an untraced window gives the
// baseline CPU cost, then a fresh traced instance runs the same window
// with spans recorded around every call into the engine and the layers'
// counters read before and after.
func traced(wl workloadDef, seed int64, dur time.Duration, outDir string) (result, error) {
	baseRun, baseOK, err := baseline(wl, seed, dur)
	if err != nil {
		return result{}, err
	}

	tr := &traceCfg{spans: newSpanLog(), cs: &metrics.CriticalSectionStats{}}
	in, _, err := setUp(wl, tr, 1, 0)
	if err != nil {
		return result{}, err
	}
	r := newRunner(in, seed, tr.spans)
	var before, after counters
	var qs *queueSampler
	var qMean, qMax float64
	rw, err := measured(r, wl, dur, func(start bool) {
		if start {
			before, qs = snapCounters(in), startQueueSampler(in)
			tr.spans.on.Store(true)
			return
		}
		tr.spans.on.Store(false)
		qMean, qMax = qs.finish()
		after = snapCounters(in)
	})
	if err != nil {
		return result{}, err
	}
	report, cerr := finishCheck(r)
	fmt.Printf("# %s traced: %d completed, %d failed; check: %s\n", wl.name, rw.w.completed, rw.w.failed, report)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.bin", wl.name, seed))
	if err := tr.spans.writeFile(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	spans, err := readSpans(path)
	if err != nil {
		return result{}, err
	}
	st := analyze(spans, wl.open)
	vals := layerMetrics(st, before, after, rw.w.completed, qMean, qMax, rw.w.inflightMax)
	vals["sm.recover_ms_per_mb"] = 0
	if in.recoverMiB > 0 {
		vals["sm.recover_ms_per_mb"] = in.recoverMs / in.recoverMiB
	}
	vals["bench.trace_overhead_pct"] = 100 * (rw.cpuUS/baseRun.cpuUS - 1)
	res := result{
		Correct:   cerr == nil && baseOK,
		Attempted: baseRun.warm.attempted + baseRun.w.attempted + rw.warm.attempted + rw.w.attempted,
		Failed:    baseRun.warm.failed + baseRun.w.failed + rw.warm.failed + rw.w.failed,
		Metrics:   map[string]metric{},
	}
	for n, v := range vals {
		u, ok := layerUnits[n]
		if !ok {
			u = "1"
		}
		res.Metrics[n] = metric{v, u}
	}
	if cerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", wl.name, cerr)
	}
	return res, nil
}
