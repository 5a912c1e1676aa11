// Package catalog holds the schema layer: table definitions (fields and
// types), their heap files, and their B+tree indexes, including the key
// extraction functions that bit-pack composite workload keys into int64s.
//
// The catalog also records each table's current partitioning field, which
// the DORA router and the aligned-access monitor (experiment E7) consult.
package catalog

import (
	"fmt"
	"sync"

	"dora/internal/btree"
	"dora/internal/storage"
	"dora/internal/tuple"
)

// Field describes one column.
type Field struct {
	Name string
	Type tuple.Type
}

// KeyFunc extracts an int64 index key from a record.
type KeyFunc func(tuple.Record) int64

// Index is a secondary (or primary) index over a table.
type Index struct {
	// Name identifies the index.
	Name string
	// Fields lists the indexed column names, in order. The designer's
	// physical advisor reasons over these.
	Fields []string
	// Key extracts the (unique) index key from a record.
	Key KeyFunc
	// Tree is the index structure: a shared latched B+tree, or a
	// partitioned tree whose subtrees DORA claims per partition worker.
	Tree btree.AccessMethod
	// RouteRange maps an interval of routing-field values (the field
	// named by RouteField) to the inclusive interval of index keys those
	// values pack into. Non-nil only when the index's leading key
	// component is the routing field, which is what makes the index
	// physiologically partitionable: the worker that owns the logical
	// range owns exactly one contiguous key interval.
	RouteRange func(routeLo, routeHi int64) (keyLo, keyHi int64)
	// RouteField names the partitioning field RouteRange is defined for.
	// DORA claims the index only while the table is partitioned on it.
	RouteField string
}

// Partitioned returns the index tree as a PartitionedTree, or nil when
// the index uses a shared latched tree.
func (ix *Index) Partitioned() *btree.PartitionedTree {
	pt, _ := ix.Tree.(*btree.PartitionedTree)
	return pt
}

// FieldMap declares an order-preserving interval bijection between two
// routable fields of a table (e.g. TATP's sub_nbr = N+1-s_id). Map
// takes an inclusive interval of From-field values and returns the
// inclusive interval of To-field values it corresponds to. With a map
// from the table's current partitioning field to an index's RouteField,
// the index stays claimable after re-partitioning even though its
// RouteRange was declared for the original field (see Table.RouteFor).
type FieldMap struct {
	From, To string
	Map      func(lo, hi int64) (int64, int64)
}

// Table is a table: schema, heap, primary index and secondaries.
type Table struct {
	// ID is the stable numeric id used in log records and lock names.
	ID uint32
	// Name is the table name.
	Name string
	// Fields is the ordered column list.
	Fields []Field
	// Heap stores the records.
	Heap *storage.Heap
	// Primary is the primary-key index (always present).
	Primary *Index
	// Secondaries are additional unique indexes.
	Secondaries []*Index
	// FieldMaps are the declared interval bijections between routable
	// fields, consulted by RouteFor when the partitioning field is not
	// the one an index's RouteRange was declared for.
	FieldMaps []FieldMap

	// PartitionField names the column DORA currently routes on. It is
	// mutable: the alignment advisor (E7) can re-partition on a new field.
	partMu         sync.RWMutex
	partitionField string
}

// FieldIndex returns the position of the named column, or -1.
func (t *Table) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// PartitionField returns the column DORA routes on.
func (t *Table) PartitionField() string {
	t.partMu.RLock()
	defer t.partMu.RUnlock()
	return t.partitionField
}

// SetPartitionField changes the routing column (logical re-partitioning).
func (t *Table) SetPartitionField(f string) {
	t.partMu.Lock()
	t.partitionField = f
	t.partMu.Unlock()
}

// RouteFor returns a function mapping inclusive intervals of the named
// field's values to ix's key intervals, or nil when the index is not
// routable on that field. The identity case returns ix.RouteRange
// directly; otherwise a declared FieldMap composing field →
// ix.RouteField → keys makes the index claimable under a partitioning
// field its RouteRange was not declared for (re-claim beyond identity
// on Repartition).
func (t *Table) RouteFor(ix *Index, field string) func(lo, hi int64) (int64, int64) {
	if ix.RouteRange == nil {
		return nil
	}
	if ix.RouteField == field {
		return ix.RouteRange
	}
	for _, fm := range t.FieldMaps {
		if fm.From == field && fm.To == ix.RouteField {
			m, rr := fm.Map, ix.RouteRange
			return func(lo, hi int64) (int64, int64) { return rr(m(lo, hi)) }
		}
	}
	return nil
}

// Indexes returns the primary index followed by all secondaries.
func (t *Table) Indexes() []*Index {
	out := make([]*Index, 0, 1+len(t.Secondaries))
	if t.Primary != nil {
		out = append(out, t.Primary)
	}
	return append(out, t.Secondaries...)
}

// IndexByName returns the index (primary or secondary) with that name.
func (t *Table) IndexByName(name string) *Index {
	if t.Primary != nil && t.Primary.Name == name {
		return t.Primary
	}
	for _, ix := range t.Secondaries {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// Catalog is the set of tables.
type Catalog struct {
	mu     sync.RWMutex
	byName map[string]*Table
	// tables lists the tables in registration order; table id i is
	// tables[i-1]. It only ever grows, so Tables can hand out a view of
	// it without copying.
	tables []*Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{byName: make(map[string]*Table)}
}

// AddTable registers a table built by the storage manager. The table is
// assigned the next id; its primary index must already be set.
func (c *Catalog) AddTable(t *Table) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[t.Name]; dup {
		return nil, fmt.Errorf("catalog: table %q exists", t.Name)
	}
	c.tables = append(c.tables, t)
	t.ID = uint32(len(c.tables))
	c.byName[t.Name] = t
	return t, nil
}

// Table returns the table with the given name, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byName[name]
}

// TableByID returns the table with the given id, or nil.
func (c *Catalog) TableByID(id uint32) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if id == 0 || int(id) > len(c.tables) {
		return nil
	}
	return c.tables[id-1]
}

// Tables returns all tables in registration order. The slice is shared
// with the catalog and must not be modified; it costs no allocation,
// since later registrations append past its end and never touch it.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[:len(c.tables):len(c.tables)]
}
