package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dora/internal/buffer"
	"dora/internal/page"
)

// logChunk is the allocation unit of logStore: appends never copy what
// was written before.
const logChunk = 1 << 20

// logStore is the benchmark's wal.Store: an in-memory log device that
// counts the bytes the engine writes, remembers how much of them was
// synced, and can model a device flush by blocking each Sync in nanosleep
// for a fixed time. In a traced run it records a span per Sync.
type logStore struct {
	flush time.Duration // modeled device flush per Sync; 0 = none
	spans *spanLog      // nil in an untraced run

	mu      sync.Mutex
	chunks  [][]byte
	size    int
	synced  int
	written atomic.Int64
	held    atomic.Int64 // bytes of chunk memory allocated
}

func newLogStore(flush time.Duration, spans *spanLog) *logStore {
	return &logStore{flush: flush, spans: spans}
}

// Write implements wal.Store.
func (s *logStore) Write(b []byte) error {
	s.written.Add(int64(len(b)))
	s.mu.Lock()
	s.size += len(b)
	for len(b) > 0 {
		if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == logChunk {
			s.chunks = append(s.chunks, make([]byte, 0, logChunk))
			s.held.Add(logChunk)
		}
		last := &s.chunks[len(s.chunks)-1]
		k := min(len(b), logChunk-len(*last))
		*last = append(*last, b[:k]...)
		b = b[k:]
	}
	s.mu.Unlock()
	return nil
}

// Sync implements wal.Store: the bytes written before the call become
// durable once the modeled flush has elapsed.
func (s *logStore) Sync() error {
	start := s.spans.now()
	s.mu.Lock()
	end := s.size
	s.mu.Unlock()
	if s.flush > 0 {
		// A blocking syscall, like the fsync it stands for; the runtime
		// timer behind time.Sleep overshoots by up to a millisecond.
		sleepUntil(time.Now(), int64(s.flush))
	}
	s.mu.Lock()
	n := max(end-s.synced, 0)
	s.synced = max(s.synced, end)
	s.mu.Unlock()
	s.spans.add(span{kind: spanSync, arg: uint32(n), start: start, end: s.spans.now()})
	return nil
}

// Contents implements wal.Store.
func (s *logStore) Contents() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prefix(s.size), nil
}

func (s *logStore) prefix(n int) []byte {
	out := make([]byte, 0, n)
	for _, c := range s.chunks {
		if len(out) == n {
			break
		}
		out = append(out, c[:min(len(c), n-len(out))]...)
	}
	return out
}

// Close implements wal.Store.
func (s *logStore) Close() error { return nil }

// crashCopy returns a store holding only the synced prefix: what a device
// would keep if the process died now.
func (s *logStore) crashCopy() *logStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &logStore{}
	_ = c.Write(s.prefix(s.synced))
	c.synced = c.size
	return c
}

// timedDisk wraps the page store of a traced run and records a span per
// page read and write.
type timedDisk struct {
	buffer.Disk
	spans *spanLog
}

// ReadPage implements buffer.Disk.
func (d *timedDisk) ReadPage(id page.ID, dst *page.Page) error {
	start := d.spans.now()
	err := d.Disk.ReadPage(id, dst)
	d.spans.add(span{kind: spanDiskRead, start: start, end: d.spans.now()})
	return err
}

// WritePage implements buffer.Disk.
func (d *timedDisk) WritePage(id page.ID, src *page.Page) error {
	start := d.spans.now()
	err := d.Disk.WritePage(id, src)
	d.spans.add(span{kind: spanDiskWrite, start: start, end: d.spans.now()})
	return err
}
