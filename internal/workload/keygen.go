// Package workload provides the benchmark driver used by every
// experiment: configurable client counts, think times, transaction
// mixes, and key generators (uniform, and the demo's movable
// hot spot), with throughput/latency/abort accounting and an optional
// throughput timeline for the re-balancing experiments.
package workload

import (
	"math/rand"
	"sync/atomic"
)

// KeyGen produces keys in a domain with some distribution. Implementations
// must be safe for use from one goroutine per Next call site (the driver
// gives each client its own rand.Rand).
type KeyGen interface {
	// Next draws a key using rng.
	Next(rng *rand.Rand) int64
	// Domain returns the inclusive key bounds.
	Domain() (lo, hi int64)
}

// Uniform draws uniformly from [Lo, Hi].
type Uniform struct {
	Lo, Hi int64
}

// Next implements KeyGen.
func (u Uniform) Next(rng *rand.Rand) int64 { return u.Lo + rng.Int63n(u.Hi-u.Lo+1) }

// Domain implements KeyGen.
func (u Uniform) Domain() (int64, int64) { return u.Lo, u.Hi }

// Hotspot sends HotFrac of draws into a narrow window of the domain whose
// center can be moved at runtime — the demo's "slide it around to vary
// the locations of hot spots". The rest of the draws are uniform.
type Hotspot struct {
	Lo, Hi int64
	// HotFrac is the probability a draw lands in the hot window.
	HotFrac float64
	// HotWidth is the window width in keys.
	HotWidth int64

	center atomic.Int64
}

// NewHotspot builds a hotspot generator centered mid-domain.
func NewHotspot(lo, hi int64, hotFrac float64, width int64) *Hotspot {
	h := &Hotspot{Lo: lo, Hi: hi, HotFrac: hotFrac, HotWidth: width}
	h.center.Store((lo + hi) / 2)
	return h
}

// SetCenter moves the hot window.
func (h *Hotspot) SetCenter(c int64) {
	if c < h.Lo {
		c = h.Lo
	}
	if c > h.Hi {
		c = h.Hi
	}
	h.center.Store(c)
}

// Center returns the current hot-window center.
func (h *Hotspot) Center() int64 { return h.center.Load() }

// Next implements KeyGen.
func (h *Hotspot) Next(rng *rand.Rand) int64 {
	if rng.Float64() < h.HotFrac {
		c := h.center.Load()
		lo := c - h.HotWidth/2
		if lo < h.Lo {
			lo = h.Lo
		}
		hi := lo + h.HotWidth - 1
		if hi > h.Hi {
			hi = h.Hi
			lo = hi - h.HotWidth + 1
			if lo < h.Lo {
				lo = h.Lo
			}
		}
		return lo + rng.Int63n(hi-lo+1)
	}
	return h.Lo + rng.Int63n(h.Hi-h.Lo+1)
}

// Domain implements KeyGen.
func (h *Hotspot) Domain() (int64, int64) { return h.Lo, h.Hi }
