package chronosntp_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"chronosntp/internal/analysis"
	"chronosntp/internal/attack"
	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/core"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/eval"
	"chronosntp/internal/fleet"
	"chronosntp/internal/mitigation"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/runner"
	"chronosntp/internal/shiftsim"
	"chronosntp/internal/simnet"
	"chronosntp/internal/wirenet"
)

// The benchmarks below regenerate every table/figure of the paper (and
// the claims its single figure rests on). Each reports the headline
// number as a benchmark metric so `go test -bench` output doubles as the
// reproduction record; the full formatted tables come from cmd/attacksim.

// BenchmarkFigure1PoolComposition regenerates Figure 1: pool composition
// over the 24 hourly queries with defragmentation poisoning at query 12.
func BenchmarkFigure1PoolComposition(b *testing.B) {
	var fraction float64
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.Config{Seed: 1, Mechanism: core.Defrag, PoisonQuery: 12})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		fraction = res.AttackerFraction
	}
	b.ReportMetric(fraction, "attacker-fraction")
	b.ReportMetric(2.0/3.0, "paper-threshold")
}

// BenchmarkTableAttackWindow regenerates the §IV attack-window claim: the
// last poisoning query that still yields a ≥2/3 pool majority.
func BenchmarkTableAttackWindow(b *testing.B) {
	crossover := 0
	for i := 0; i < b.N; i++ {
		crossover = analysis.MaxPoisonQuery(24, 4, 89, 2.0/3.0)
	}
	b.ReportMetric(float64(crossover), "crossover-query")
	b.ReportMetric(12, "paper-crossover")
}

// BenchmarkTableMaxAddresses regenerates the §IV forged-response capacity
// ("up to 89 for a single non-fragmented DNS response").
func BenchmarkTableMaxAddresses(b *testing.B) {
	records := 0
	for i := 0; i < b.N; i++ {
		var err error
		records, err = dnswire.MaxARecords(core.PoolName, dnswire.EthernetMaxPayload, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "max-records")
	b.ReportMetric(89, "paper-max-records")
}

// BenchmarkTableChronosSecurity regenerates the §III security-bound
// contrast: years to shift 100 ms at the 1/3 boundary vs hours at the
// poisoned 2/3 pool.
func BenchmarkTableChronosSecurity(b *testing.B) {
	var honestYears, poisonedHours float64
	for i := 0; i < b.N; i++ {
		honest, err := analysis.YearsToShift(500, 166, 15, 5, 100*time.Millisecond, 25*time.Millisecond, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		poisoned, err := analysis.YearsToShift(133, 89, 15, 5, 100*time.Millisecond, 25*time.Millisecond, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		honestYears = honest.Years
		poisonedHours = poisoned.ExpectedRounds
	}
	b.ReportMetric(honestYears, "honest-years")
	b.ReportMetric(poisonedHours, "poisoned-hours")
	b.ReportMetric(20, "paper-honest-years-min")
}

// BenchmarkTableFragmentationStudy regenerates the §II measurement-study
// marginals on the calibrated synthetic populations.
func BenchmarkTableFragmentationStudy(b *testing.B) {
	var tbl *eval.Table
	for i := 0; i < b.N; i++ {
		res, err := eval.FragmentationStudy(1, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		tbl = res.Table()
	}
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkTableTimeShift regenerates the end-to-end shift contrast:
// honest Chronos vs poisoned Chronos vs poisoned classic NTP.
func BenchmarkTableTimeShift(b *testing.B) {
	var poisonedMs float64
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.Config{
			Seed: 2, Mechanism: core.Defrag, PoisonQuery: 12,
			SyncDuration: 2 * time.Hour, RunPlainNTP: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		poisonedMs = float64(res.ChronosOffset) / float64(time.Millisecond)
	}
	b.ReportMetric(poisonedMs, "poisoned-chronos-shift-ms")
	b.ReportMetric(100, "paper-shift-goal-ms")
}

// BenchmarkTableMitigations regenerates the §V table: each defence's pool
// composition, plus the 24 h-hijack residual attack.
func BenchmarkTableMitigations(b *testing.B) {
	var mitigatedMalicious, hijackFraction float64
	for i := 0; i < b.N; i++ {
		s, err := core.NewScenario(core.Config{
			Seed: 3, Mechanism: core.Defrag, PoisonQuery: 12,
			ResolverPolicy: mitigation.PaperResolverPolicy(),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		mitigatedMalicious = float64(res.PoolMalicious)

		h, err := core.NewScenario(core.Config{
			Seed: 4, Mechanism: core.BGPHijackPersistent, PoisonQuery: 1,
			MaliciousServers: 120,
			ResolverPolicy:   mitigation.PaperResolverPolicy(),
			ClientPolicy:     mitigation.PaperClientPolicy(),
		})
		if err != nil {
			b.Fatal(err)
		}
		hres, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		hijackFraction = hres.AttackerFraction
	}
	b.ReportMetric(mitigatedMalicious, "mitigated-malicious")
	b.ReportMetric(hijackFraction, "hijack24h-fraction")
}

// BenchmarkTableAblations regenerates the E8 ablation table (TTL pinning,
// sample size, injected-address count).
func BenchmarkTableAblations(b *testing.B) {
	var rows float64
	for i := 0; i < b.N; i++ {
		res, err := eval.Ablations(1, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows = float64(len(res.Table().Rows))
	}
	b.ReportMetric(rows, "rows")
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationForgedTTL contrasts the TTL-pinning design choice: a
// forged response with a short TTL does not freeze the pool, so benign
// servers keep accumulating after the poisoning.
func BenchmarkAblationForgedTTL(b *testing.B) {
	run := func(ttl time.Duration) float64 {
		s, err := core.NewScenario(core.Config{
			Seed: 5, Mechanism: core.Defrag, PoisonQuery: 6, ForgedTTL: ttl,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.AttackerFraction
	}
	var pinned, unpinned float64
	for i := 0; i < b.N; i++ {
		pinned = run(attack.DefaultForgedTTL)
		unpinned = run(150 * time.Second)
	}
	b.ReportMetric(pinned, "fraction-ttl-7d")
	b.ReportMetric(unpinned, "fraction-ttl-150s")
}

// BenchmarkAblationEDNSCapacity sweeps the EDNS payload size: the forged
// record count per single response (the paper's lever #1).
func BenchmarkAblationEDNSCapacity(b *testing.B) {
	var classic, flagDay, ethernet, jumbo int
	for i := 0; i < b.N; i++ {
		classic, _ = dnswire.MaxARecords(core.PoolName, 512, false)
		flagDay, _ = dnswire.MaxARecords(core.PoolName, 1232, true)
		ethernet, _ = dnswire.MaxARecords(core.PoolName, 1472, true)
		jumbo, _ = dnswire.MaxARecords(core.PoolName, 4096, true)
	}
	b.ReportMetric(float64(classic), "records-512")
	b.ReportMetric(float64(flagDay), "records-1232")
	b.ReportMetric(float64(ethernet), "records-1472")
	b.ReportMetric(float64(jumbo), "records-4096")
}

// BenchmarkAblationSampleSize sweeps Chronos' m (with d = m/3): the
// round-capture probability at the paper's poisoned pool.
func BenchmarkAblationSampleSize(b *testing.B) {
	var p9, p15, p27 float64
	for i := 0; i < b.N; i++ {
		p9 = analysis.RoundWinProb(133, 89, 9, 3)
		p15 = analysis.RoundWinProb(133, 89, 15, 5)
		p27 = analysis.RoundWinProb(133, 89, 27, 9)
	}
	b.ReportMetric(p9, "capture-m9")
	b.ReportMetric(p15, "capture-m15")
	b.ReportMetric(p27, "capture-m27")
}

// BenchmarkDNSWireRoundTrip measures the hot wire-format path (encode +
// decode of the 89-record forged response).
func BenchmarkDNSWireRoundTrip(b *testing.B) {
	forge := &attack.ResponseForge{PoolName: core.PoolName, Servers: evilIPs(89)}
	q := dnswire.NewQuery(1, core.PoolName, dnswire.TypeA)
	q.SetEDNS(dnswire.EthernetMaxPayload)
	resp, err := forge.Response(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := resp.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dnswire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// poisonedPoolRRs returns the answer section of the forged 89-record,
// 7-day-TTL pool response.
func poisonedPoolRRs(tb testing.TB) []dnswire.RR {
	forge := &attack.ResponseForge{PoolName: core.PoolName, Servers: evilIPs(89)}
	q := dnswire.NewQuery(1, core.PoolName, dnswire.TypeA)
	q.SetEDNS(dnswire.EthernetMaxPayload)
	resp, err := forge.Response(q)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.Answers
}

// replayLookuper answers every lookup at once with res and keeps the
// client's absorb callback, so later responses can be handed to the same
// client without a resolver or a simulated network in between.
type replayLookuper struct {
	res dnsresolver.Result
	cb  dnsresolver.Callback
}

func (l *replayLookuper) Lookup(_ string, _ dnswire.Type, cb dnsresolver.Callback) {
	l.cb = cb
	cb(l.res)
}

// newAbsorbClient returns a Chronos client on host whose pool already
// holds a 24-server benign harvest, and its absorb callback. The client
// is stopped, so nothing it scheduled stays on the event queue.
func newAbsorbClient(host *simnet.Host) (*chronos.Client, dnsresolver.Callback) {
	benign := make([]dnswire.RR, 24)
	for i := range benign {
		benign[i] = dnswire.ARecord(core.PoolName, 150, [4]byte{203, 0, 113, byte(i + 1)})
	}
	l := &replayLookuper{res: dnsresolver.Result{RRs: benign}}
	c := chronos.New(host, &clock.Clock{}, l, chronos.Config{})
	c.BuildPool(nil)
	c.Stop()
	return c, l.cb
}

// BenchmarkPoolAbsorb measures the Chronos pool merge of the 89-record
// poisoned set into a client holding 24 benign servers. fresh is the
// first absorb of the set (89 adds); repeat re-delivers a cached set the
// client already merged, under its resolver-cache SetID — the steady
// state of every hourly query once the poison is cached, which skips the
// merge; repeat-setid0 re-delivers it with no SetID, which pays the full
// re-merge (89 membership probes, no adds).
func BenchmarkPoolAbsorb(b *testing.B) {
	poisoned := dnsresolver.Result{RRs: poisonedPoolRRs(b), SetID: 1}
	n := simnet.New(simnet.Config{Seed: 1})
	host, err := n.AddHost(simnet.IPv4(10, 0, 0, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		// Clients are built outside the timer in batches, which keeps the
		// StopTimer cost off all but one in every batch iterations.
		const batch = 256
		absorb := make([]dnsresolver.Callback, batch)
		for i := 0; i < b.N; i += batch {
			k := min(batch, b.N-i)
			b.StopTimer()
			for j := 0; j < k; j++ {
				_, absorb[j] = newAbsorbClient(host)
			}
			b.StartTimer()
			for j := 0; j < k; j++ {
				absorb[j](poisoned)
			}
		}
	})
	for _, arm := range []struct {
		name  string
		setID uint64
	}{{"repeat", poisoned.SetID}, {"repeat-setid0", 0}} {
		b.Run(arm.name, func(b *testing.B) {
			c, absorb := newAbsorbClient(host)
			absorb(poisoned)
			res := poisoned
			res.SetID = arm.setID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				absorb(res)
			}
			b.StopTimer()
			if c.PoolSize() != 24+89 {
				b.Fatalf("pool size %d, want %d", c.PoolSize(), 24+89)
			}
		})
	}
}

// TestPoolAbsorbRepeatAllocs pins BenchmarkPoolAbsorb/repeat at zero
// allocations: re-delivering an already merged cached set must cost
// nothing but the policy pass.
func TestPoolAbsorbRepeatAllocs(t *testing.T) {
	poisoned := dnsresolver.Result{RRs: poisonedPoolRRs(t), SetID: 1}
	n := simnet.New(simnet.Config{Seed: 1})
	host, err := n.AddHost(simnet.IPv4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, absorb := newAbsorbClient(host)
	absorb(poisoned)
	if allocs := testing.AllocsPerRun(200, func() { absorb(poisoned) }); allocs != 0 {
		t.Fatalf("repeat absorb: %v allocs/op, want 0", allocs)
	}
	// The benign harvest, the first poisoned merge, then AllocsPerRun's
	// warm-up call and 200 measured ones: the policy pass still counts each.
	if got := c.Stats().PoolResponses; got != 1+1+201 {
		t.Fatalf("PoolResponses = %d, want %d", got, 1+1+201)
	}
}

// BenchmarkCacheGet measures a resolver cache hit on the aged 89-record
// poisoned entry. same-second reads it repeatedly within one virtual
// second (the aged view is reused as is); new-second advances the clock
// one second per read, so every read re-ages the view's TTLs.
func BenchmarkCacheGet(b *testing.B) {
	rrs := poisonedPoolRRs(b)
	stored := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	c := dnsresolver.NewCache()
	c.Put(stored, core.PoolName, dnswire.TypeA, rrs)
	// The first aged read clones the records once; time the steady state.
	c.Get(stored.Add(time.Second), core.PoolName, dnswire.TypeA)
	for _, arm := range []struct {
		name string
		at   func(i int) time.Time
	}{
		{"same-second", func(int) time.Time { return stored.Add(time.Hour) }},
		{"new-second", func(i int) time.Time { return stored.Add(time.Duration(1+i%86400) * time.Second) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, ok := c.Get(arm.at(i), core.PoolName, dnswire.TypeA)
				if !ok || len(got) != len(rrs) {
					b.Fatalf("cache miss on the poisoned entry at %v", arm.at(i))
				}
			}
		})
	}
}

// BenchmarkRunnerParallelism measures the Monte-Carlo engine's throughput
// (trials/sec) at 1 worker, 4 workers, and GOMAXPROCS workers over a fixed
// 16-trial grid of reduced scenarios. On a 4-core machine the 4-worker run
// should deliver ≥ 2× the single-worker trials/sec.
func BenchmarkRunnerParallelism(b *testing.B) {
	grid := runner.Grid{
		Base: core.Config{
			PoolQueries:      6,
			BenignServers:    60,
			MaliciousServers: 20,
		},
		Seeds:         runner.Seeds(1, 4),
		Mechanisms:    []core.Mechanism{core.Defrag, core.BGPHijack},
		PoisonQueries: []int{2, 4},
	}
	trials := grid.Trials()

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, workers := range workerCounts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, _, err := runner.MonteCarlo(context.Background(), trials, workers); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			b.ReportMetric(float64(len(trials)*b.N)/elapsed.Seconds(), "trials/sec")
			b.ReportMetric(float64(len(trials)), "trials/grid")
		})
	}
}

// BenchmarkFleetScale measures the population engine's steady-state
// throughput (clients/sec) at 1k, 10k and 100k clients. Fan-out is Zipf
// with one poisoned resolver; the pool-generation horizon is reduced to 6
// hourly queries so a single iteration stays in benchmark range.
//
// The measured region is fleet.Simulate only — the event loops plus the
// population measurement. Construction (fleet.Build: topology, client
// population, attacker schedule) runs with the timer stopped and is
// reported separately as setup-ms/op; the timer pause also suspends the
// allocation accounting, so allocs/op reads on the steady simulation
// path alone. Earlier revisions timed fleet.Run whole, so roughly half
// of every "throughput" number was really setup cost — comparisons
// against bench files older than this note are apples-to-oranges.
//
// CI runs this family at a fixed -benchtime 3x so the committed bars are
// a deterministic trial count rather than whatever iteration count the
// default 1s calibration lands on.
func BenchmarkFleetScale(b *testing.B) {
	sizes := []struct{ clients, resolvers int }{
		{1_000, 10},
		{10_000, 32},
		{100_000, 100},
	}
	for _, sz := range sizes {
		cfg := fleet.Config{
			Seed:          1,
			Clients:       sz.clients,
			Resolvers:     sz.resolvers,
			Poisoned:      1,
			PoolQueries:   6,
			PoisonQuery:   2,
			BenignServers: 120, MaliciousServers: 60,
		}
		b.Run(fmt.Sprintf("clients=%d", sz.clients), func(b *testing.B) {
			var subverted float64
			var setup, steady time.Duration
			b.ReportAllocs()
			gc0, total0 := gcCPUSeconds()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := fleet.New(cfg)
				t0 := time.Now()
				if err := f.Build(context.Background(), 0); err != nil {
					b.Fatal(err)
				}
				setup += time.Since(t0)
				b.StartTimer()
				t0 = time.Now()
				res, err := f.Simulate(context.Background(), 0)
				if err != nil {
					b.Fatal(err)
				}
				steady += time.Since(t0)
				subverted = res.SubvertedFraction
			}
			b.ReportMetric(float64(sz.clients)*float64(b.N)/steady.Seconds(), "clients/sec")
			b.ReportMetric(setup.Seconds()*1e3/float64(b.N), "setup-ms/op")
			b.ReportMetric(subverted, "subverted-fraction")
			// Whole-op GC fraction (setup included: StopTimer pauses the
			// benchmark clock, not the collector).
			reportGCFrac(b, gc0, total0)
		})
	}
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time and total CPU
// time via runtime/metrics. The delta ratio across a benchmark region is
// reported as gc-cpu-frac: the fraction of compute the collector ate,
// the number the slab-backed event engine exists to hold down.
func gcCPUSeconds() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// reportGCFrac reports the GC CPU fraction over the region since
// gcCPUSeconds returned (gc0, total0).
func reportGCFrac(b *testing.B, gc0, total0 float64) {
	gc1, total1 := gcCPUSeconds()
	if d := total1 - total0; d > 0 {
		b.ReportMetric((gc1-gc0)/d, "gc-cpu-frac")
	}
}

// BenchmarkEventQueue measures the simulator's raw schedule+dispatch
// throughput over a standing population of 10k pending timers. Each
// iteration schedules and drains a batch of 4096 timers whose delays
// mix packet, timeout and pool-timer scales, so the metric covers heap
// push and pop at realistic depth plus slab recycling. The single arm
// keeps the name heap, under which the trajectory records it.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("heap", func(b *testing.B) {
		n := simnet.New(simnet.Config{Seed: 1})
		rng := rand.New(rand.NewSource(7))
		fired := 0
		fn := func() { fired++ }
		delay := func() time.Duration {
			switch rng.Intn(8) {
			case 0, 1, 2: // packet delivery: under 2 ms
				return time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
			case 3, 4, 5: // query timeouts: under 3 s
				return time.Duration(rng.Int63n(int64(3 * time.Second)))
			default: // pool-generation timers: under 4 h
				return time.Duration(rng.Int63n(int64(4 * time.Hour)))
			}
		}
		// The standing population keeps the heap deep, so every push and
		// pop pays a realistic number of sift steps.
		for i := 0; i < 10_000; i++ {
			n.After(delay(), fn)
		}
		const batch = 4096
		b.ReportAllocs()
		gc0, total0 := gcCPUSeconds()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				n.After(delay(), fn)
			}
			n.RunFor(5 * time.Second)
		}
		elapsed := time.Since(start)
		b.StopTimer()
		reportGCFrac(b, gc0, total0)
		b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "events/sec")
		if fired == 0 {
			b.Fatal("no events dispatched; the loop under test is vacuous")
		}
	})
}

// BenchmarkShiftEngine measures the long-horizon shift engine's
// throughput in simulated rounds/sec. The acceptance bar is ≥ 100k
// rounds/sec — the round-compression fast path (the engine's own
// virtual clock plus attempt-granular sampling) is what makes simulating
// the paper's "decades to shift" regimes tractable. The honest-majority
// configuration exercises the steady-state path (every round samples,
// evaluates C1/C2, and applies an update); the poisoned configurations
// add the escalation machinery; the auth arms put two thirds of the
// benign servers behind SHA-256 credentials, which starves C1/C2 into a
// full-pool panic sweep every round (auth-c1c2) or, with a three-source
// quorum, panics in only a few percent of rounds (auth-quorum3). A fixed
// 50k-round budget per iteration keeps the metric stable.
func BenchmarkShiftEngine(b *testing.B) {
	cases := []struct {
		name string
		cfg  shiftsim.Config
	}{
		{"honest-majority", shiftsim.Config{
			Seed: 1, PoolSize: 133, Malicious: 33,
			Target: time.Hour, // unreachable: pure steady-state throughput
		}},
		{"poisoned-greedy", shiftsim.Config{
			Seed: 1, PoolSize: 133, Malicious: 89,
			Target: time.Hour,
		}},
		{"poisoned-stealth", shiftsim.Config{
			Seed: 1, PoolSize: 133, Malicious: 89, Strategy: shiftsim.Stealth{},
			Target: time.Hour,
		}},
		{"auth-c1c2", shiftsim.Config{
			Seed: 1, PoolSize: 133, Malicious: 89,
			Auth:   &shiftsim.AuthModel{Frac: 2.0 / 3.0, Scheme: shiftsim.AuthSHA256, Move: shiftsim.MoveShift},
			Target: time.Hour,
		}},
		{"auth-quorum3", shiftsim.Config{
			Seed: 1, PoolSize: 133, Malicious: 89, Client: chronos.Config{MinSources: 3},
			Auth:   &shiftsim.AuthModel{Frac: 2.0 / 3.0, Scheme: shiftsim.AuthSHA256, Move: shiftsim.MoveShift},
			Target: time.Hour,
		}},
	}
	for _, tc := range cases {
		tc.cfg.MaxRounds = 50_000
		tc.cfg.Horizon = 10 * 365 * 24 * time.Hour
		tc.cfg.RunLength = -1
		b.Run(tc.name, func(b *testing.B) {
			rounds := 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := shiftsim.Run(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			elapsed := time.Since(start)
			b.ReportMetric(float64(rounds)/elapsed.Seconds(), "rounds/sec")
			b.ReportMetric(100_000, "target-rounds/sec")
		})
	}
}

// BenchmarkShiftEngineWire measures the full packet-fidelity mode for
// contrast: every sample is a real NTP exchange over simnet, so the
// throughput gap against BenchmarkShiftEngine is the price of fidelity
// the compressed fast path avoids.
func BenchmarkShiftEngineWire(b *testing.B) {
	cfg := shiftsim.Config{
		Seed: 1, PoolSize: 60, Malicious: 15, Wire: true,
		Target: time.Hour, MaxRounds: 200,
		Horizon: 30 * 24 * time.Hour,
	}
	rounds := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := shiftsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(rounds)/elapsed.Seconds(), "rounds/sec")
}

// BenchmarkWireServe measures the real-socket NTP serve path end to end
// over loopback: a zero-alloc client pipelines batches of requests
// against a wirenet.Server with a 64-deep window, so the metric reflects
// server throughput rather than ping-pong latency. The acceptance bar is
// ≥ 50k requests/sec with 0 allocs/op — run with -benchmem; the
// allocs/op figure lands in bench/BENCH_<rev>.json where cmd/benchdiff
// hard-fails the first allocation that creeps into the steady path.
func BenchmarkWireServe(b *testing.B) {
	srv, err := wirenet.Serve(wirenet.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(srv.AddrPort()))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	const batch = 2048 // requests per benchmark iteration
	const window = 64  // in-flight requests
	t1 := time.Unix(1591000000, 0)
	t1ts := ntpwire.TimestampFromTime(t1)
	wire := ntpwire.NewClientPacket(t1).Encode()
	var resp ntpwire.Packet
	var respBuf [1024]byte
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		b.Fatal(err)
	}
	readOne := func() {
		n, err := conn.Read(respBuf[:])
		if err != nil {
			b.Fatal(err)
		}
		if err := ntpwire.DecodeInto(&resp, respBuf[:n]); err != nil {
			b.Fatal(err)
		}
		if !ntpwire.ValidServerResponse(&resp, t1ts) {
			b.Fatalf("invalid reply: %+v", resp)
		}
	}

	// Absorb the socket's first-use lazy allocations (deadline timer,
	// poller state) outside the measured region, so allocs/op is an
	// honest read on the steady path even at -benchtime 1x.
	if _, err := conn.Write(wire); err != nil {
		b.Fatal(err)
	}
	readOne()

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sent, inflight := 0, 0
		for sent < batch {
			for inflight < window && sent < batch {
				if _, err := conn.Write(wire); err != nil {
					b.Fatal(err)
				}
				inflight++
				sent++
			}
			readOne()
			inflight--
		}
		for ; inflight > 0; inflight-- {
			readOne()
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "requests/sec")
	b.ReportMetric(50_000, "target-requests/sec")
	if got, want := srv.Served(), uint64(b.N*batch); got < want {
		b.Fatalf("served %d of %d requests", got, want)
	}
}

// BenchmarkAuthVerify measures the MAC-authenticated serve path end to
// end over loopback: every request carries a SHA-256 trailer the server
// must verify, every reply is sealed and verified again client-side.
// Same pipelined shape as BenchmarkWireServe, so the requests/sec gap
// between the two is the price of symmetric authentication. The
// acceptance bar is 0 allocs/op — the verify/seal path reuses the
// policy's hash scratch, and cmd/benchdiff hard-fails the first
// allocation that creeps in.
func BenchmarkAuthVerify(b *testing.B) {
	key := ntpauth.Key{ID: 9, Algo: ntpauth.AlgoSHA256, Secret: []byte("bench-auth-secret")}
	tbl, err := ntpauth.NewKeyTable(key)
	if err != nil {
		b.Fatal(err)
	}
	mkAuth := func() *ntpauth.ServerAuth {
		return &ntpauth.ServerAuth{Keys: tbl, Require: true}
	}
	srv, err := wirenet.Serve(wirenet.ServerConfig{
		Responder: ntpserver.NewResponder(ntpserver.Config{Auth: mkAuth()}),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(srv.AddrPort()))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	const batch = 2048 // requests per benchmark iteration
	const window = 64  // in-flight requests
	t1 := time.Unix(1591000000, 0)
	t1ts := ntpwire.TimestampFromTime(t1)
	raw := ntpwire.NewClientPacket(t1).Encode()
	wire, ok := ntpauth.NewMACer(tbl).AppendMAC(raw, key.ID, raw)
	if !ok {
		b.Fatal("AppendMAC failed")
	}
	ca := &ntpauth.ClientAuth{Key: key, Require: true}
	var resp ntpwire.Packet
	var respBuf [1024]byte
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		b.Fatal(err)
	}
	readOne := func() {
		n, err := conn.Read(respBuf[:])
		if err != nil {
			b.Fatal(err)
		}
		if err := ntpwire.DecodeInto(&resp, respBuf[:n]); err != nil {
			b.Fatal(err)
		}
		if !ntpwire.ValidServerResponse(&resp, t1ts) {
			b.Fatalf("invalid reply: %+v", resp)
		}
		if authed, acceptable := ca.VerifyResponse(respBuf[:n]); !authed || !acceptable {
			b.Fatalf("reply MAC rejected (authed=%v acceptable=%v)", authed, acceptable)
		}
	}

	// Absorb first-use lazy allocations (socket poller, the policy's MAC
	// scratch on both ends) outside the measured region.
	if _, err := conn.Write(wire); err != nil {
		b.Fatal(err)
	}
	readOne()

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sent, inflight := 0, 0
		for sent < batch {
			for inflight < window && sent < batch {
				if _, err := conn.Write(wire); err != nil {
					b.Fatal(err)
				}
				inflight++
				sent++
			}
			readOne()
			inflight--
		}
		for ; inflight > 0; inflight-- {
			readOne()
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "requests/sec")
	if got, want := srv.Served(), uint64(b.N*batch); got < want {
		b.Fatalf("served %d of %d requests", got, want)
	}
}

func evilIPs(n int) []simnet.IP {
	out := make([]simnet.IP, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, simnet.IPv4(66, 0, byte(i/250), byte(i%250+1)))
	}
	return out
}
