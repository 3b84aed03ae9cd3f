package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

var tinyScale = scale{
	fleetClients: 2_000, fleetResolvers: 10, fleetPoisoned: 2,
	shiftRounds:   500,
	serveRequests: 1_024,
	syncRounds:    20,
	setupReps:     3,
}

func tinyEnv(t *testing.T, name string, trace bool) env {
	return env{name: name, seed: defaultSeed, seconds: 0.2, trace: trace, outDir: t.TempDir(), sc: tinyScale}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that it passes its output checks and reports every named
// metric with its unit.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			e := tinyEnv(t, name, trace)
			rep, err := measure(workloads[name](e), e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(rep.checks) > 0 || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed, checks %q", name, trace, rep.failed, rep.attempted, rep.checks)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.metrics), len(want))
			}
			for _, spec := range want {
				m, ok := rep.metrics[spec.name]
				if !ok || m.Unit != spec.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, spec.name, m, spec.unit)
				}
			}
			if !trace {
				for _, spec := range endToEnd {
					if rep.metrics[spec.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, spec.name, rep.metrics[spec.name].Value)
					}
				}
			}
		}
	}
}

// TestWrongPinFails pins a fleet output to a value it does not have and
// expects every operation of the run to count as failed.
func TestWrongPinFails(t *testing.T) {
	e := tinyEnv(t, "fleet-e9", false)
	b := newFleetBench(e)
	b.pins = &fleetPins{subvertedFraction: 0.9999, planted: 2, poisoned: 2}
	rep, err := measure(b, e)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || len(rep.checks) == 0 {
		t.Fatalf("wrong pin passed: %d of %d failed, checks %q", rep.failed, rep.attempted, rep.checks)
	}
	if rep.failed != rep.attempted {
		t.Fatalf("%d of %d operations failed, want all", rep.failed, rep.attempted)
	}
}

// TestRunPrintsResult checks the command's output format: a header line
// and, last, the result object with exactly its four keys.
func TestRunPrintsResult(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "shift-e11", "--seconds", "0.1", "--out", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out.String())
	}
	var h header
	if err := json.Unmarshal([]byte(lines[0]), &h); err != nil || h.HeldOutSeed != heldOutSeed || h.Host.NumCPU == 0 {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "shift-e11", "--trace", "2"},
		{"--workload", "shift-e11", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || out.Len() != 0 {
			t.Errorf("run(%q) = %v, printed %q; want an error and no output", args, err, out.String())
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workloads and metrics
// this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"chronosntp/internal/simnet.(*Network).Step"}, "simnet"},
		{[]string{"chronosntp/internal/wirenet/interoptest.StartFarm"}, "wirenet"},
		{[]string{"crypto/internal/fips140/aes/gcm.gcmAesDec"}, "crypto"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall"}, "syscall"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "chronosntp/internal/dnswire.Decode"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"main.(*serveBench).loop"}, "perfbench"},
		{[]string{"sort.Slice", "chronosntp/internal/chronos.Rule.Evaluate"}, "chronos"},
		{[]string{"aeshashbody", "runtime.mapaccess1_faststr", "chronosntp/internal/shiftsim.(*engine).sample"}, "shiftsim"},
		{[]string{"runtime.memmove", "runtime.goexit"}, "runtime_other"},
		{[]string{"sort.Slice"}, "other"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestMutexWait(t *testing.T) {
	text := []byte(`--- mutex:
cycles/second=1000000000
sampling period=1
3000000 4 @ 0x1 0x2
#	0x1	sync.(*Mutex).Unlock+0x1	/go/src/sync/mutex.go:1
#	0x2	chronosntp/internal/wirenet.(*Server).serveOne+0x2	/src/server.go:1

5000000 2 @ 0x3
#	0x3	runtime.unlock+0x3	/go/src/runtime/lock.go:1
`)
	got, err := mutexWait(text, "chronosntp/internal/wirenet.")
	if err != nil {
		t.Fatal(err)
	}
	if got != 3*time.Millisecond {
		t.Fatalf("mutexWait = %v, want 3ms", got)
	}
}
