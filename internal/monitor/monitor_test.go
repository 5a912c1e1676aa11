package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dora/internal/catalog"
	"dora/internal/dora"
	"dora/internal/engine/conventional"
	"dora/internal/metrics"
	"dora/internal/sm"
	"dora/internal/trace"
	"dora/internal/tuple"
	"dora/internal/xct"
)

func rig(t *testing.T) (*sm.SM, *catalog.Table, *dora.Dora, *conventional.Engine) {
	t.Helper()
	cs := &metrics.CriticalSectionStats{}
	s, err := sm.Open(sm.Options{Frames: 128, CS: cs})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable(sm.TableSpec{
		Name:      "kv",
		Fields:    []catalog.Field{{Name: "k", Type: tuple.TInt}, {Name: "v", Type: tuple.TInt}},
		KeyFields: []string{"k"},
		Key:       func(r tuple.Record) int64 { return r[0].Int },
	})
	if err != nil {
		t.Fatal(err)
	}
	ses := s.Session(0)
	load := s.Begin()
	for i := int64(1); i <= 100; i++ {
		_ = ses.Insert(load, tbl, tuple.Record{tuple.I(i), tuple.I(0)})
	}
	_ = s.Commit(load)
	de := dora.New(s, dora.Config{PartitionsPerTable: 2, Domains: map[string][2]int64{"kv": {1, 100}}})
	t.Cleanup(func() { _ = de.Close() })
	return s, tbl, de, conventional.New(s)
}

func TestSampleFields(t *testing.T) {
	s, tbl, de, conv := rig(t)
	src := &Source{
		SM:   s,
		Dora: de,
		Engines: []CommitCounter{
			CounterAdapter{EngineName: "conventional", Committed: &conv.Committed, Aborted: &conv.Aborted},
			CounterAdapter{EngineName: "dora", Committed: &de.Committed, Aborted: &de.Aborted},
		},
	}
	flow := func(k int64) *xct.Flow {
		return xct.NewFlow("w").AddPhase(&xct.Action{
			Table: "kv", KeyField: "k", Key: k, Mode: xct.Write,
			Run: func(env *xct.Env) error {
				return env.Ses.Mutate(env.Txn, tbl, k, func(r tuple.Record) tuple.Record {
					r[1] = tuple.I(r[1].Int + 1)
					return r
				})
			},
		})
	}
	for i := int64(1); i <= 10; i++ {
		if err := conv.Exec(0, flow(i)); err != nil {
			t.Fatal(err)
		}
		if err := de.Exec(0, flow(i)); err != nil {
			t.Fatal(err)
		}
	}
	prev := src.Sample(nil, 0)
	snap := src.Sample(prev, time.Second)
	if len(snap.Engines) != 2 {
		t.Fatalf("engines = %d", len(snap.Engines))
	}
	if snap.Engines[0].Committed != 10 || snap.Engines[1].Committed != 10 {
		t.Fatalf("commit counts: %+v", snap.Engines)
	}
	if len(snap.Partitions) != 2 {
		t.Fatalf("partitions = %d", len(snap.Partitions))
	}
	if len(snap.Routing["kv"]) != 2 {
		t.Fatalf("routing = %v", snap.Routing)
	}
	if snap.CS.Total() == 0 {
		t.Fatal("critical sections not sampled")
	}
	if snap.LogAppends == 0 {
		t.Fatal("log appends not sampled")
	}
}

func TestServerStreams(t *testing.T) {
	s, _, de, conv := rig(t)
	src := &Source{
		SM: s, Dora: de,
		Engines: []CommitCounter{
			CounterAdapter{EngineName: "conventional", Committed: &conv.Committed, Aborted: &conv.Aborted},
		},
	}
	sv := NewServer(src, 20*time.Millisecond)
	addr, err := sv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	snaps, err := ReadSnapshots(addr, 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	if snaps[0].At.IsZero() {
		t.Fatal("zero timestamp")
	}
	if len(snaps[0].Partitions) == 0 {
		t.Fatal("no partition stats over the wire")
	}
}

// TestSnapshotJSONRoundTrip marshals a snapshot with the observability
// views populated — stage-latency decomposition and both replication
// roles — and checks the wire format reproduces every field. This is the
// contract the demo GUI and doramon parse.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	want := &Snapshot{
		At:      time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Engines: []EngineView{{Name: "dora", Committed: 42, Aborted: 1, Throughput: 42.5}},
		StageLatency: &StageLatencyView{
			Sampled: 10, Dropped: 2, Slow: 1,
			CoveragePct: 93.5, TotalP50US: 128, TotalP99US: 4096,
			Stages: []trace.StageView{
				{Stage: "exec", Count: 10, MeanUS: 80.25, P50US: 64, P95US: 256, P99US: 512, MaxUS: 700},
				{Stage: "flush_wait", Count: 10, MeanUS: 40, P50US: 32, P95US: 64, P99US: 128, MaxUS: 130},
			},
		},
		Replication: []ReplicationView{
			{
				Role: "primary", ShippedLSN: 9000, AckHorizon: 8000, LagBytes: 1000,
				Replicas: map[string]uint64{"r1": 8000}, DegradedCommits: 3,
				RetainedLog: 512, LogTrims: 2,
			},
			{
				Role: "replica", DeliveredLSN: 8000, AppliedLSN: 7500, CommitHorizon: 7000,
				StalenessBytes: 2000, ReplicaReads: 17, OpenTxns: 2, Warming: 1,
				Failed: "boom", ApplyLagBytes: 500, LagTrendBps: -128,
				Redo: &sm.RedoStats{
					Workers: 4, MaxQueueDepth: 9, Resizes: 2,
					Appliers: []sm.RedoApplierStat{{AppliedLSN: 7400, QueueDepth: 3}},
				},
			},
		},
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", &got, want)
	}
	// Spot-check the field names the clients grep for.
	for _, key := range []string{`"stage_latency"`, `"coverage_pct"`, `"total_p50_us"`, `"resizes"`, `"apply_lag_bytes"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("wire format missing %s in %s", key, b)
		}
	}
}

// TestHTTPEndpoints drives the pull-style surface end to end: a live
// tracer feeds /metrics (Prometheus text with cumulative stage buckets),
// /snapshot serves the JSON view, and the pprof index answers.
func TestHTTPEndpoints(t *testing.T) {
	s, _, de, conv := rig(t)
	tr := trace.New(trace.Config{SampleEvery: 1})
	defer tr.Close()
	// One traced transaction with two spans so the stage histograms and
	// the coverage accounting have content.
	tt := tr.Begin(7)
	start := time.Now().Add(-time.Millisecond)
	tt.SetStart(start)
	tt.Span(trace.StageExec, 0, start, 600*time.Microsecond)
	tt.Span(trace.StageFlushWait, -1, start.Add(600*time.Microsecond), 300*time.Microsecond)
	tt.Finish(nil)

	src := &Source{
		SM: s, Dora: de, Trace: tr,
		Engines: []CommitCounter{
			CounterAdapter{EngineName: "conventional", Committed: &conv.Committed, Aborted: &conv.Aborted},
		},
	}
	ts := httptest.NewServer(Handler(src))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`dora_engine_committed_total{engine="conventional"}`,
		"dora_trace_sampled_total 1",
		`dora_stage_latency_microseconds_bucket{stage="exec",le="1024"} 1`,
		`dora_stage_latency_microseconds_bucket{stage="exec",le="+Inf"} 1`,
		`dora_stage_latency_microseconds_count{stage="total"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get("/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.StageLatency == nil || snap.StageLatency.Sampled != 1 {
		t.Fatalf("/snapshot stage latency: %+v", snap.StageLatency)
	}

	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}
