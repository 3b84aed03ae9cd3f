// Command perfbench is the repository benchmark. It drives the
// simulator and the real-socket NTP stack only through their public
// APIs, checks every output it measures, and prints one JSON result
// line per run:
//
//	perfbench --workload fleet-e9 --seed 1 --seconds 30 --trace 0
//
// Four workloads cover the ways the system is used: a population attack
// study at packet fidelity (fleet-e9), a compressed long-horizon shift
// study (shift-e11), authenticated NTP serving over loopback
// (wire-serve), and Chronos synchronisation over loopback (wire-sync).
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it measures half the time untraced and half traced (spans, CPU and
// mutex profiles) and reports the per-layer metrics. LAYERS.md records
// which layer metric should move which end-to-end metric on which
// workload.
//
// The last line of standard output is the result object; the line
// before it records the host fingerprint and the seeds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// heldOutSeed is the seed no tuning run used. A later claim of a gain
// must also hold on it.
const heldOutSeed = 7919

// defaultSeed is the seed whose fleet-e9 outputs are pinned.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header is the line printed before the result.
type header struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	HeldOutSeed int64             `json:"held_out_seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Host        host              `json:"host"`
	Raw         map[string]metric `json:"raw_metrics,omitempty"`
	Checks      []string          `json:"failed_checks,omitempty"`
	TraceFiles  []string          `json:"trace_files,omitempty"`
}

type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGCSet    bool   `json:"gogc_set"`
	// StealFrac is the share of CPU time the hypervisor gave to other
	// guests during the run: wall-clock metrics slow down with it.
	StealFrac float64 `json:"steal_frac"`
	// RefSlowdown is how many times longer the reference work took than
	// on the defining host; raw_metrics are the timed figures before
	// they were divided by it.
	RefSlowdown float64 `json:"ref_slowdown"`
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGCSet:    os.Getenv("GOGC") != "",
	}
}

// cpuModel reads the processor name from the kernel ("unknown" when it
// cannot).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat returns the host's cumulative steal and total CPU ticks (0, 0
// when the kernel does not report them).
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured wall time of the run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_build/trace", "directory for span, CPU and mutex profile files of a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	e := env{name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, sc: fullScale}
	steal0, total0 := cpuStat()
	rep, err := measure(mk(e), e)
	if err != nil {
		return err
	}
	h := header{
		Workload: *name, Seed: *seed, HeldOutSeed: heldOutSeed, Seconds: *seconds, Trace: e.trace,
		Host: fingerprint(), Raw: rep.raw, Checks: rep.checks, TraceFiles: rep.files,
	}
	h.Host.RefSlowdown = rep.slowdown
	if steal1, total1 := cpuStat(); total1 > total0 {
		h.Host.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	res := result{Correct: len(rep.checks) == 0 && rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", k)
		}
	}
	for _, v := range []any{h, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
