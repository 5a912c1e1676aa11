package clog

import (
	"testing"

	"dora/internal/wal"
)

// nullStore is a wal.Store that keeps nothing, so a benchmark measures
// the append and flush pipeline, not a growing in-memory copy.
type nullStore struct{}

func (nullStore) Write([]byte) error        { return nil }
func (nullStore) Sync() error               { return nil }
func (nullStore) Contents() ([]byte, error) { return nil, nil }
func (nullStore) Close() error              { return nil }

// tpcbUpdate is a TPC-B account-balance update record: a patch of the
// 8-byte balance column of a three-column tuple, at the LSN and
// transaction magnitudes of a 20-s tpcb-durable run.
func tpcbUpdate() *wal.Record {
	return &wal.Record{Kind: wal.KUpdate, PrevLSN: 12 << 20, TxnID: 21337, Table: 3,
		Page: 301, Slot: 187, Key: 64512, Off: 21, Redo: make([]byte, 8), Undo: make([]byte, 8)}
}

// tpcbInsert is a TPC-B history insert record: a five-column tuple image.
func tpcbInsert() *wal.Record {
	return &wal.Record{Kind: wal.KInsert, PrevLSN: 12 << 20, TxnID: 21337, Table: 4,
		Page: 1200, Slot: 150, Key: 64<<40 | 300_000_000_000, Redo: make([]byte, 47)}
}

func benchLog(b *testing.B) *Log {
	l, err := New(nullStore{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = l.Close() })
	return l
}

// BenchmarkClogAppend is one appender alone: the uncontended solo
// reservation plus the record fill, for an update patch and for an
// insert's full image.
func BenchmarkClogAppend(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  *wal.Record
	}{{"patch", tpcbUpdate()}, {"insert", tpcbInsert()}} {
		b.Run(c.name, func(b *testing.B) {
			l := benchLog(b)
			b.ReportAllocs()
			b.SetBytes(int64(wal.EncodedSize(c.rec)))
			for i := 0; i < b.N; i++ {
				l.Append(c.rec)
			}
		})
	}
}

// BenchmarkClogAppendParallel is GOMAXPROCS appenders at once, so the
// consolidation array groups their reservations.
func BenchmarkClogAppendParallel(b *testing.B) {
	l := benchLog(b)
	b.ReportAllocs()
	b.SetBytes(int64(wal.EncodedSize(tpcbUpdate())))
	b.RunParallel(func(pb *testing.PB) {
		rec := tpcbUpdate()
		for pb.Next() {
			l.Append(rec)
		}
	})
	b.ReportMetric(float64(l.Groups.Load())/float64(l.Appends.Load()), "groups/append")
}

// BenchmarkClogForce is a force of an appended record, in two cases:
// durable forces an LSN the log has already hardened (the buffer pool's
// write-ahead check on a page whose records are flushed), which neither
// waits nor allocates; waiting forces the record just appended, the flush
// daemon's hand-off, write and sync round trip.
func BenchmarkClogForce(b *testing.B) {
	b.Run("durable", func(b *testing.B) {
		l := benchLog(b)
		lsn := l.Append(tpcbUpdate())
		if err := l.Force(lsn); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Force(lsn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("waiting", func(b *testing.B) {
		l := benchLog(b)
		rec := tpcbUpdate()
		b.ReportAllocs()
		b.SetBytes(int64(wal.EncodedSize(rec)))
		for i := 0; i < b.N; i++ {
			if err := l.Force(l.Append(rec)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
