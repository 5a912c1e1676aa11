package buffer

import (
	"sync"
	"time"

	"dora/internal/metrics"
)

// Cleaner is the buffer pool's flush daemon: a paced background sweep
// that writes dirty frames back before the eviction path has to, keeping
// page misses cheap and — since the copy-on-write protocol — keeping
// owner-stamped hot pages evictable at all (the eviction path refuses to
// clean a stamped dirty frame itself; it can only drop stamped frames
// that are already clean).
//
// Stamped dirty frames are hardened through the pool's snapshot ship: the
// cleaner never latches them, it asks the owning worker for a copy and
// writes that, so foreground owner mutations proceed latch-free while
// cleaning runs. Eviction posts hints for the stamped dirty frames it had
// to skip (Pool.CleanRequests); the cleaner prioritizes those each tick.
type Cleaner struct {
	pool *Pool
	cfg  CleanerConfig

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	wg      sync.WaitGroup

	// Sweeps counts pacing ticks that found dirty work; CleanedPages
	// counts frames hardened by this daemon (snapshot or latched).
	Sweeps       metrics.Counter
	CleanedPages metrics.Counter
}

// CleanerConfig tunes the daemon.
type CleanerConfig struct {
	// Interval is the pacing tick (default 2ms).
	Interval time.Duration
	// Batch bounds frames cleaned per tick (default 64).
	Batch int
}

func (c *CleanerConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
}

// NewCleaner wires a cleaner to pool; Start launches its pacing loop.
func NewCleaner(pool *Pool, cfg CleanerConfig) *Cleaner {
	cfg.fill()
	return &Cleaner{pool: pool, cfg: cfg}
}

// Start launches the pacing loop (idempotent while running; a closed
// cleaner can be started again).
func (c *Cleaner) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.stop = make(chan struct{})
	stop := c.stop
	c.mu.Unlock()
	c.wg.Add(1)
	go c.loop(stop)
}

// Close stops the pacing loop. Call before closing the engine whose
// workers serve the snapshot ships, or a final in-flight ship could wait
// on a retired owner (it fails over safely, but shutdown is cleaner in
// this order).
func (c *Cleaner) Close() error {
	c.mu.Lock()
	started := c.started
	c.started = false
	stop := c.stop
	c.mu.Unlock()
	if started {
		close(stop)
		c.wg.Wait()
	}
	return nil
}

func (c *Cleaner) loop(stop chan struct{}) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.tick()
		}
	}
}

// tick runs one unit: eviction's hints first, then a bounded sweep.
func (c *Cleaner) tick() {
	p := c.pool
	hinted := p.pinHinted(p.cleanq, c.cfg.Batch)
	n, _ := p.writeBackFrames(hinted)
	if budget := c.cfg.Batch - len(hinted); budget > 0 {
		m, _ := p.CleanSome(budget)
		n += m
	}
	if n > 0 {
		c.Sweeps.Inc()
		c.CleanedPages.Add(int64(n))
	}
}

// Sweep synchronously cleans every dirty frame once (tests, experiments:
// a deterministic "the cleaner ran" point).
func (c *Cleaner) Sweep() int {
	n, _ := c.pool.CleanSome(0)
	c.CleanedPages.Add(int64(n))
	return n
}
