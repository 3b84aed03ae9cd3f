package main

import (
	"math/rand"
	"sort"
	"time"
)

// The benchmark host is a virtual machine whose speed drifts with its
// neighbours' load: on identical code, one workload's CPU time per
// operation moved by 1.8x within half an hour, with no stolen time to
// show for it. Timed figures are therefore reported at the host's
// reference speed: each phase also times a fixed piece of the
// benchmark's own work (sorting and hashing, what the simulator and the
// wire stack spend their user time on), and every timed figure is
// scaled by how much slower or faster that work ran than it did on the
// host the benchmark was defined on. A change to the program does not
// touch the reference, so it moves the scaled figures in full.

// refEvery is how often a phase times the reference work: often enough
// to follow the drift, at about 3% of the phase's time.
const refEvery = 100 * time.Millisecond

// refNominal is about the reference work's median time on the host the
// benchmark was defined on (2-vCPU Intel Xeon guest, Go 1.24), in its
// faster periods. It only sets the scale of the reported figures.
const refNominal = 2 * time.Millisecond

// refWork is the reference: sort 16384 integers, then hash 32768 keys
// into a map.
type refWork struct {
	base, scratch []int
	m             map[uint64]uint64
	sum           uint64 // keeps the work observable
}

func newRefWork() *refWork {
	rng := rand.New(rand.NewSource(1))
	w := &refWork{base: make([]int, 1<<14), scratch: make([]int, 1<<14), m: make(map[uint64]uint64, 1<<14)}
	for i := range w.base {
		w.base[i] = rng.Int()
	}
	return w
}

func (w *refWork) run() time.Duration {
	t0 := time.Now()
	copy(w.scratch, w.base)
	sort.Ints(w.scratch)
	clear(w.m)
	x := uint64(w.scratch[0]) | 1
	for i := 0; i < 1<<15; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w.m[x&(1<<14-1)] += x
	}
	w.sum += x + uint64(len(w.m))
	return time.Since(t0)
}

// hostMeter times the reference work through a phase.
type hostMeter struct {
	times []time.Duration
	last  time.Time
}

// tick times w once for every refEvery since the previous tick, and
// once on the first tick.
func (h *hostMeter) tick(w *refWork) {
	n := int(time.Since(h.last) / refEvery)
	if h.last.IsZero() {
		n = 1
	}
	for i := 0; i < n; i++ {
		h.times = append(h.times, w.run())
	}
	if n > 0 {
		h.last = time.Now()
	}
}

// slowdown is how many times longer the reference work took in the
// phase than refNominal: above 1 on a slower host than the defining
// one.
func (h *hostMeter) slowdown() float64 {
	return percentile(h.times, 0.5).Seconds() / refNominal.Seconds()
}
