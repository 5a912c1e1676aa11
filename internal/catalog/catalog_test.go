package catalog

import (
	"testing"

	"dora/internal/tuple"
)

func mkTable(name string) *Table {
	t := &Table{
		Name: name,
		Fields: []Field{
			{Name: "id", Type: tuple.TInt},
			{Name: "alt", Type: tuple.TInt},
		},
		Primary: &Index{
			Name:   name + "_pk",
			Fields: []string{"id"},
			Key:    func(r tuple.Record) int64 { return r[0].Int },
		},
	}
	t.SetPartitionField("id")
	return t
}

func TestAddAndLookup(t *testing.T) {
	c := New()
	a, err := c.AddTable(mkTable("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddTable(mkTable("b"))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID || a.ID == 0 {
		t.Fatalf("ids: %d, %d", a.ID, b.ID)
	}
	if c.Table("a") != a || c.TableByID(b.ID) != b {
		t.Fatal("lookup broken")
	}
	if c.Table("zzz") != nil || c.TableByID(99) != nil {
		t.Fatal("missing lookups must return nil")
	}
	if got := c.Tables(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Tables() = %v", got)
	}
}

// TestTablesView: Tables hands out the registration list without copying
// it, and a view taken earlier is not disturbed by later registrations.
func TestTablesView(t *testing.T) {
	c := New()
	a, _ := c.AddTable(mkTable("a"))
	if n := testing.AllocsPerRun(100, func() { c.Tables() }); n != 0 {
		t.Fatalf("Tables: %.1f allocs, want 0", n)
	}
	old := c.Tables()
	b, _ := c.AddTable(mkTable("b"))
	if len(old) != 1 || old[0] != a {
		t.Fatalf("earlier view = %v", old)
	}
	if got := c.Tables(); len(got) != 2 || got[1] != b {
		t.Fatalf("Tables() = %v", got)
	}
	if c.TableByID(0) != nil || c.TableByID(b.ID+1) != nil {
		t.Fatal("ids outside the registered range must return nil")
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	c := New()
	if _, err := c.AddTable(mkTable("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTable(mkTable("dup")); err == nil {
		t.Fatal("duplicate table name accepted")
	}
}

func TestFieldIndexAndPartitionField(t *testing.T) {
	tbl := mkTable("t")
	if tbl.FieldIndex("alt") != 1 || tbl.FieldIndex("nope") != -1 {
		t.Fatal("FieldIndex broken")
	}
	if tbl.PartitionField() != "id" {
		t.Fatalf("partition field = %q", tbl.PartitionField())
	}
	tbl.SetPartitionField("alt")
	if tbl.PartitionField() != "alt" {
		t.Fatal("SetPartitionField had no effect")
	}
}

func TestIndexByName(t *testing.T) {
	tbl := mkTable("t")
	tbl.Secondaries = append(tbl.Secondaries, &Index{Name: "t_by_alt", Fields: []string{"alt"}})
	if tbl.IndexByName("t_pk") != tbl.Primary {
		t.Fatal("primary lookup")
	}
	if tbl.IndexByName("t_by_alt") == nil || tbl.IndexByName("zzz") != nil {
		t.Fatal("secondary lookup")
	}
}
