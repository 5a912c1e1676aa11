package exp

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Header:  []string{"a", "bbbb"},
		Rows:    [][]string{{"x", "1"}, {"yyyy", "22"}},
		Caption: "cap",
	}
	out := tb.Render()
	for _, want := range []string{"demo", "bbbb", "yyyy", "cap", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestE8FlowGraphs(t *testing.T) {
	tb, graphs, err := E8FlowGraphs()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if len(graphs) != 5 {
		t.Fatalf("graphs = %d", len(graphs))
	}
	// InsertCallForwarding decomposes into 3 actions over >= 2 phases.
	for _, r := range tb.Rows {
		if r[0] == "InsertCallForwarding" {
			if r[1] != "3" {
				t.Fatalf("InsertCallForwarding actions = %s", r[1])
			}
			if r[2] == "1" {
				t.Fatal("InsertCallForwarding must have > 1 phase")
			}
		}
	}
}

func TestE9PhysicalDesign(t *testing.T) {
	tb, rendered, err := E9PhysicalDesign(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r[1] != "s_id" {
			t.Fatalf("table %s partitioned by %s, want s_id", r[0], r[1])
		}
	}
	if !strings.Contains(rendered, "prepend partitioning column s_id") {
		t.Fatalf("prepend rule missing:\n%s", rendered)
	}
}

func TestE4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := E4CriticalSections(Config{Quick: true, Duration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// DORA's lock-manager column must be exactly zero.
	if tb.Rows[1][1] != "0.00" {
		t.Fatalf("dora lockmgr/txn = %s, want 0.00", tb.Rows[1][1])
	}
	// Conventional must pay double-digit lock-manager critical sections.
	conv, err := strconv.ParseFloat(tb.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if conv < 10 {
		t.Fatalf("conventional lockmgr/txn = %.2f, expected >= 10", conv)
	}
	t.Logf("conventional lockmgr/txn = %.2f", conv)
}
