package monitor

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"dora/internal/metrics"
)

// HTTP observability surface: the same Source the TCP streamer samples,
// exposed pull-style for standard tooling.
//
//	/metrics          Prometheus text exposition (counters, gauges, and
//	                  the tracer's per-stage latency histograms)
//	/snapshot         one monitor Snapshot as JSON (the TCP line format,
//	                  on demand)
//	/debug/pprof/...  the runtime profiles (CPU, heap, goroutine, block,
//	                  mutex, execution trace)
//
// The exposition is hand-rolled — no client library dependency — but
// follows the text format: HELP/TYPE headers, cumulative `le` bucket
// counts ending in +Inf, _sum and _count series per histogram. Bucket
// bounds are the power-of-two microsecond uppers of metrics.Histogram
// (trailing empty buckets are collapsed into +Inf to keep scrapes
// small).

// httpState carries the previous snapshot so /snapshot reports
// throughput deltas across successive scrapes, like the TCP stream does
// across ticks.
type httpState struct {
	mu   sync.Mutex
	prev *Snapshot
	last time.Time
}

func (st *httpState) sample(src *Source) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	var dt time.Duration
	if st.prev != nil {
		dt = now.Sub(st.last)
	}
	snap := src.Sample(st.prev, dt)
	st.prev, st.last = snap, now
	return snap
}

// Handler builds the observability mux over src. pprof is wired
// explicitly (not via the DefaultServeMux side effect of importing
// net/http/pprof) so callers compose it with their own muxes safely.
func Handler(src *Source) http.Handler {
	st := &httpState{}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, src, st.sample(src))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st.sample(src))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ListenHTTP binds addr (e.g. "127.0.0.1:8080", or ":0" for an ephemeral
// port), serves the Handler mux on it, and returns the bound address and
// a closer.
func ListenHTTP(src *Source, addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(src)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

func writeProm(w http.ResponseWriter, src *Source, snap *Snapshot) {
	fmt.Fprintf(w, "# HELP dora_engine_committed_total Transactions committed per engine.\n")
	fmt.Fprintf(w, "# TYPE dora_engine_committed_total counter\n")
	for _, e := range snap.Engines {
		fmt.Fprintf(w, "dora_engine_committed_total{engine=%q} %d\n", e.Name, e.Committed)
	}
	fmt.Fprintf(w, "# HELP dora_engine_aborted_total Transactions aborted per engine.\n")
	fmt.Fprintf(w, "# TYPE dora_engine_aborted_total counter\n")
	for _, e := range snap.Engines {
		fmt.Fprintf(w, "dora_engine_aborted_total{engine=%q} %d\n", e.Name, e.Aborted)
	}
	fmt.Fprintf(w, "# HELP dora_log_appends_total WAL records appended.\n# TYPE dora_log_appends_total counter\ndora_log_appends_total %d\n", snap.LogAppends)
	fmt.Fprintf(w, "# HELP dora_log_forces_total WAL device forces.\n# TYPE dora_log_forces_total counter\ndora_log_forces_total %d\n", snap.LogForces)
	fmt.Fprintf(w, "# HELP dora_group_commits_total Commits hardened by another transaction's force.\n# TYPE dora_group_commits_total counter\ndora_group_commits_total %d\n", snap.GroupCommits)
	fmt.Fprintf(w, "# HELP dora_buffer_hit_rate Buffer pool hit rate.\n# TYPE dora_buffer_hit_rate gauge\ndora_buffer_hit_rate %g\n", snap.BufferHitRate)
	if sl := snap.StageLatency; sl != nil {
		fmt.Fprintf(w, "# HELP dora_trace_sampled_total Transactions the latency tracer sampled.\n# TYPE dora_trace_sampled_total counter\ndora_trace_sampled_total %d\n", sl.Sampled)
		fmt.Fprintf(w, "# HELP dora_trace_dropped_total Span records dropped on full rings.\n# TYPE dora_trace_dropped_total counter\ndora_trace_dropped_total %d\n", sl.Dropped)
		fmt.Fprintf(w, "# HELP dora_trace_slow_total Traced transactions past the slow threshold.\n# TYPE dora_trace_slow_total counter\ndora_trace_slow_total %d\n", sl.Slow)
		fmt.Fprintf(w, "# HELP dora_trace_coverage_pct Share of traced end-to-end time the spans explain.\n# TYPE dora_trace_coverage_pct gauge\ndora_trace_coverage_pct %g\n", sl.CoveragePct)
	}
	if src.Trace.Enabled() {
		fmt.Fprintf(w, "# HELP dora_stage_latency_microseconds Per-stage transaction latency.\n")
		fmt.Fprintf(w, "# TYPE dora_stage_latency_microseconds histogram\n")
		src.Trace.ForEachStage(func(name string, h *metrics.Histogram) {
			writePromHist(w, name, h)
		})
	}
}

// writePromHist emits one stage histogram in the text format: cumulative
// bucket counts keyed by their upper bound in microseconds, trailing
// empty buckets folded into +Inf.
func writePromHist(w http.ResponseWriter, stage string, h *metrics.Histogram) {
	buckets := h.Buckets()
	hi := -1
	for i, n := range buckets {
		if n > 0 {
			hi = i
		}
	}
	cum := int64(0)
	for i := 0; i <= hi; i++ {
		cum += buckets[i]
		fmt.Fprintf(w, "dora_stage_latency_microseconds_bucket{stage=%q,le=%q} %d\n",
			stage, fmt.Sprint(metrics.BucketUpperMicros(i)), cum)
	}
	fmt.Fprintf(w, "dora_stage_latency_microseconds_bucket{stage=%q,le=\"+Inf\"} %d\n", stage, h.Count())
	fmt.Fprintf(w, "dora_stage_latency_microseconds_sum{stage=%q} %d\n", stage, h.SumMicros())
	fmt.Fprintf(w, "dora_stage_latency_microseconds_count{stage=%q} %d\n", stage, h.Count())
}
