package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// env is one run's settings.
type env struct {
	name    string // workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	sc      scale
}

// scale sizes the workloads. fullScale is the benchmark; the tests run
// tinyScale.
type scale struct {
	fleetClients, fleetResolvers, fleetPoisoned int
	shiftRounds                                 int // round budget of each arm in one pass
	serveRequests                               int // valid requests in one batch
	syncRounds                                  int // SyncRounds in one batch
	setupReps                                   int // set-ups per run, spread over it, for workloads that keep their instance
}

var fullScale = scale{
	fleetClients: 100_000, fleetResolvers: 100, fleetPoisoned: 10,
	shiftRounds:   10_000,
	serveRequests: 4_096,
	syncRounds:    200,
	setupReps:     10,
}

// workload is one way of driving the system. A batch is a fixed amount
// of seeded work whose exact outputs must repeat from batch to batch.
type workload interface {
	// setup builds an instance for the next batches.
	setup(rec *recorder) error
	// perBatchSetup reports whether a batch consumes its instance, so
	// every batch needs its own setup.
	perBatchSetup() bool
	batch(rec *recorder) batch
	teardown()
	// keepsState reports whether the instance holds program state
	// between batches. heap_mb is the live heap after set-up when it
	// does, and the heap one batch allocates when it does not.
	keepsState() bool
	// layers adds the workload's per-layer metrics, from the first
	// batch's outputs and the spans of the traced phase, and returns the
	// output checks that failed on the way.
	layers(first batch, rec *recorder, m map[string]metric) []string
}

// batch is what one batch returns.
type batch struct {
	work      float64         // throughput units done: clients, rounds or requests
	attempted int64           // operations attempted
	failed    int64           // operations that failed
	latencies []time.Duration // wall time of each user-visible operation
	out       any             // exact outputs; every batch must equal the first
	checks    []string        // output checks that failed
}

// phase accumulates the batches of one timed phase.
type phase struct {
	work    float64
	rates   []float64 // work per second of each batch, set-up excluded
	cpu     []float64 // process CPU seconds per unit of work of each batch
	allocMB []float64 // heap allocated by each batch, MB
	lat     []time.Duration
	batches int
	host    hostMeter
}

// throughput is the median batch rate: robust to the odd batch that a
// neighbour on the host slowed down.
func (p phase) throughput() float64 { return median(p.rates) }

type report struct {
	metrics           map[string]metric
	raw               map[string]metric // the end-to-end figures before scaling to the reference speed
	slowdown          float64           // the untraced phase's reference slowdown
	checks            []string
	attempted, failed int64
	files             []string
}

type runner struct {
	w       workload
	e       env
	ref     *refWork // the reference work of hostspeed.go
	setups  []float64
	heap    float64 // live heap after the first set-up, MB
	first   batch
	rep     report
	nbatch  int
	lastDur time.Duration
	// lastSetup is when the live instance was set up. Workloads that
	// keep their instance set it up again every setupEvery, so the
	// set-up samples spread over the run instead of sharing one moment
	// of the host's load.
	lastSetup  time.Time
	setupEvery time.Duration
}

// setup sets up an instance between two forced collections, so neither
// the set-up nor the batch after it starts with the previous batch's
// garbage half collected.
func (r *runner) setup(rec *recorder) error {
	runtime.GC()
	t0 := time.Now()
	if err := r.w.setup(rec); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	if r.nbatch == 0 {
		// Later set-ups would also count the latencies and spans the
		// run has collected.
		r.heap = liveHeapMB()
	} else {
		runtime.GC()
	}
	return nil
}

// runPhase runs batches for about budget of wall time: a batch starts
// only when the previous one suggests it will end within the budget,
// and every phase runs at least one.
func (r *runner) runPhase(budget time.Duration, rec *recorder) (phase, error) {
	var p phase
	start := time.Now()
	for p.batches == 0 || time.Since(start)+r.lastDur <= budget {
		t0 := time.Now()
		if r.w.perBatchSetup() || r.lastSetup.IsZero() || t0.Sub(r.lastSetup) >= r.setupEvery {
			r.w.teardown()
			if err := r.setup(rec); err != nil {
				return p, err
			}
			r.lastSetup = t0
		}
		tb, c0, a0 := time.Now(), procCPU(), heapAllocBytes()
		var b batch
		rec.do("batch", func() { b = r.w.batch(rec) })
		d, c, a := time.Since(tb), procCPU()-c0, heapAllocBytes()-a0
		r.lastDur = time.Since(t0)
		r.nbatch++
		if r.nbatch == 1 {
			r.first = b
		} else if !reflect.DeepEqual(b.out, r.first.out) {
			b.failed = b.attempted
			b.checks = append(b.checks, fmt.Sprintf("batch %d: outputs %+v differ from the first batch's %+v", r.nbatch, b.out, r.first.out))
		}
		r.rep.attempted += b.attempted
		r.rep.failed += b.failed
		r.rep.checks = append(r.rep.checks, b.checks...)
		p.work += b.work
		if b.work > 0 {
			p.rates = append(p.rates, b.work/d.Seconds())
			p.cpu = append(p.cpu, c/b.work)
		}
		p.allocMB = append(p.allocMB, float64(a)/(1<<20))
		p.lat = append(p.lat, b.latencies...)
		p.batches++
		if r.w.perBatchSetup() {
			// The batch consumed its instance: collect it now, so that
			// the collector does not run alongside the reference work.
			r.w.teardown()
			runtime.GC()
		}
		// Made after the first set-up, so the live heap measured
		// there does not hold it.
		if r.ref == nil {
			r.ref = newRefWork()
		}
		p.host.tick(r.ref)
	}
	p.host.tick(r.ref)
	return p, nil
}

// measure runs w for e.seconds and reports its metrics.
func measure(w workload, e env) (report, error) {
	budget := time.Duration(e.seconds * float64(time.Second))
	r := &runner{w: w, e: e, setupEvery: budget / time.Duration(e.sc.setupReps)}
	defer w.teardown()
	if e.trace {
		budget /= 2
	}
	plain, err := r.runPhase(budget, nil)
	if err != nil {
		return report{}, err
	}
	heap := r.heap
	if !w.keepsState() {
		heap = median(plain.allocMB)
	}
	r.rep.raw = map[string]metric{
		"setup_s":          {median(r.setups), "s"},
		"throughput_per_s": {plain.throughput(), "1/s"},
		"latency_p50_ms":   {durMS(percentile(plain.lat, 0.5)), "ms"},
		"heap_mb":          {heap, "MB"},
		"cpu_us_per_op":    {median(plain.cpu) * 1e6, "us"},
	}
	r.rep.slowdown = plain.host.slowdown()
	r.rep.metrics = map[string]metric{}
	for name, m := range r.rep.raw {
		switch name {
		case "throughput_per_s":
			m.Value *= r.rep.slowdown
		case "setup_s", "latency_p50_ms", "cpu_us_per_op":
			m.Value /= r.rep.slowdown
		}
		r.rep.metrics[name] = m
	}
	if e.trace {
		r.rep.metrics = map[string]metric{}
		if err := r.traced(budget, plain); err != nil {
			return report{}, err
		}
	}
	return r.rep, nil
}

// traced runs the traced phase and fills the per-layer metrics.
func (r *runner) traced(budget time.Duration, plain phase) error {
	rec := newRecorder()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return err
	}
	prevFrac := runtime.SetMutexProfileFraction(1)
	before := readCounters()
	p, err := r.runPhase(budget, rec)
	after := readCounters()
	pprof.StopCPUProfile()
	var mutex bytes.Buffer
	if perr := pprof.Lookup("mutex").WriteTo(&mutex, 1); perr != nil && err == nil {
		err = perr
	}
	runtime.SetMutexProfileFraction(prevFrac)
	if err != nil {
		return err
	}

	m := r.rep.metrics
	shares, err := foldCPU(cpu.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for mod, share := range shares {
		m["cpu."+mod] = metric{share, "ratio"}
	}
	wait, err := mutexWait(mutex.Bytes(), "chronosntp/internal/wirenet.")
	if err != nil {
		return fmt.Errorf("mutex profile: %w", err)
	}
	ops := p.work
	if ops <= 0 {
		ops = 1
	}
	m["wirenet.mutex_wait_us_per_request"] = metric{wait.Seconds() * 1e6 / ops, "us"}
	d := after.sub(before)
	m["runtime.gc_cpu_frac"] = metric{ratio(d.gcCPU, d.totalCPU), "ratio"}
	m["runtime.alloc_bytes_per_op"] = metric{d.allocBytes / ops, "B"}
	m["runtime.allocs_per_op"] = metric{d.allocObjects / ops, "count"}
	m["proc.cpu_us_per_op"] = metric{d.procCPU * 1e6 / ops, "us"}
	m["trace.overhead_frac"] = metric{1 - ratio(p.throughput()*p.host.slowdown(), plain.throughput()*plain.host.slowdown()), "ratio"}
	m["host.ref_slowdown"] = metric{p.host.slowdown(), "ratio"}
	if checks := r.w.layers(r.first, rec, m); len(checks) > 0 {
		r.rep.checks = append(r.rep.checks, checks...)
	}
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			m[pl.name] = metric{0, pl.unit}
		}
	}

	if err := os.MkdirAll(r.e.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.e.outDir, fmt.Sprintf("%s-seed%d", r.e.name, r.e.seed))
	files := map[string][]byte{".cpu.pb.gz": cpu.Bytes(), ".mutex.txt": mutex.Bytes(), ".spans.tsv": rec.tsv()}
	for _, suffix := range []string{".cpu.pb.gz", ".mutex.txt", ".spans.tsv"} {
		if err := os.WriteFile(base+suffix, files[suffix], 0o644); err != nil {
			return err
		}
		r.rep.files = append(r.rep.files, base+suffix)
	}
	return nil
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]func(env) workload{
	"fleet-e9":   func(e env) workload { return newFleetBench(e) },
	"shift-e11":  func(e env) workload { return newShiftBench(e) },
	"wire-serve": func(e env) workload { return newServeBench(e) },
	"wire-sync":  func(e env) workload { return newSyncBench(e) },
}

// liveHeapMB forces collections and returns the live heap. The second
// collection frees what finalizers of the first released.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// counters are cumulative process counters read around the traced
// phase.
type counters struct {
	gcCPU, totalCPU, allocBytes, allocObjects, procCPU float64
}

// heapAllocBytes returns the bytes the process has allocated on the
// heap so far.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func readCounters() counters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return counters{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocBytes:   float64(s[2].Value.Uint64()),
		allocObjects: float64(s[3].Value.Uint64()),
		procCPU:      procCPU(),
	}
}

// procCPU returns the CPU time the process has used, user and system.
func procCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func (c counters) sub(o counters) counters {
	return counters{c.gcCPU - o.gcCPU, c.totalCPU - o.totalCPU, c.allocBytes - o.allocBytes, c.allocObjects - o.allocObjects, c.procCPU - o.procCPU}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile of ds by the nearest-rank rule.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func durMS(d time.Duration) float64 { return d.Seconds() * 1e3 }

// durMedianS returns the median of ds in seconds.
func durMedianS(ds []time.Duration) float64 { return percentile(ds, 0.5).Seconds() }
func durUS(d time.Duration) float64         { return d.Seconds() * 1e6 }
