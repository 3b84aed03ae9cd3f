package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"chronosntp/internal/core"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/fleet"
)

// fleetBench is fleet-e9: the paper's population attack at packet
// fidelity. Every batch builds and simulates the whole population, so
// set-up is New+Build and the timed operation is Simulate.
type fleetBench struct {
	cfg      fleet.Config
	parallel int
	pins     *fleetPins
	f        *fleet.Fleet
}

// fleetPins are the outputs of the default seed at full scale.
type fleetPins struct {
	subvertedFraction float64 // to four decimals
	planted, poisoned int
}

var defaultFleetPins = fleetPins{subvertedFraction: 0.6350, planted: 10, poisoned: 10}

// fleetOutput is what a batch must reproduce exactly.
type fleetOutput struct {
	Total, Chronos, Classic, Poisoned, Planted, Subverted, Shifted int
	MeanAttackerFraction                                           float64
	Resolver                                                       dnsresolver.Stats
}

func newFleetBench(e env) *fleetBench {
	b := &fleetBench{
		cfg: fleet.Config{
			Seed:         e.seed,
			Clients:      e.sc.fleetClients,
			Resolvers:    e.sc.fleetResolvers,
			Distribution: fleet.Zipf,
			Poisoned:     e.sc.fleetPoisoned,
			Mechanism:    core.Defrag,
			PoisonQuery:  6,
			PoolQueries:  24,
			// The paper's pool: 500 benign servers, 89 injected.
			BenignServers:    500,
			MaliciousServers: 89,
		},
		parallel: min(2, runtime.NumCPU()),
	}
	if e.seed == defaultSeed && e.sc == fullScale {
		b.pins = &defaultFleetPins
	}
	return b
}

func (b *fleetBench) keepsState() bool { return true }

func (b *fleetBench) perBatchSetup() bool { return true }

func (b *fleetBench) setup(rec *recorder) error {
	b.f = nil
	id, k, s0 := rec.id(), rec.kind("build"), rec.now()
	f := fleet.New(b.cfg)
	var err error
	rec.do("build", func() { err = f.Build(context.Background(), b.parallel) })
	rec.add(id, k, s0)
	if err != nil {
		return err
	}
	b.f = f
	return nil
}

func (b *fleetBench) teardown() { b.f = nil }

func (b *fleetBench) batch(rec *recorder) batch {
	out := batch{attempted: int64(b.cfg.Clients)}
	id, k := rec.id(), rec.kind("simulate")
	var res *fleet.Result
	var err error
	t0, s0 := time.Now(), rec.now()
	rec.do("simulate", func() { res, err = b.f.Simulate(context.Background(), b.parallel) })
	d := time.Since(t0)
	rec.add(id, k, s0)
	b.f = nil
	if err != nil {
		out.failed = out.attempted
		out.checks = append(out.checks, fmt.Sprintf("simulate: %v", err))
		return out
	}
	o := fleetOutput{
		Total: res.TotalClients, Chronos: res.ChronosClients, Classic: res.ClassicClients,
		Poisoned: res.PoisonedResolvers, Planted: res.PlantedResolvers,
		Subverted: res.SubvertedClients, Shifted: res.ShiftedClients,
		MeanAttackerFraction: res.MeanAttackerFraction,
	}
	for _, s := range res.Shards {
		r := &o.Resolver
		r.ClientQueries += s.ResolverStats.ClientQueries
		r.CacheHits += s.ResolverStats.CacheHits
		r.UpstreamQueries += s.ResolverStats.UpstreamQueries
		r.Timeouts += s.ResolverStats.Timeouts
		r.PolicyRejects += s.ResolverStats.PolicyRejects
		r.Failures += s.ResolverStats.Failures
	}
	out.out = o
	out.work = float64(res.TotalClients)
	out.latencies = []time.Duration{d}
	if o.Total != b.cfg.Clients {
		out.checks = append(out.checks, fmt.Sprintf("fleet carried %d of %d clients", o.Total, b.cfg.Clients))
	}
	if p := b.pins; p != nil {
		if got := math.Round(res.SubvertedFraction*1e4) / 1e4; got != p.subvertedFraction {
			out.checks = append(out.checks, fmt.Sprintf("subverted fraction %.4f, pinned %.4f", got, p.subvertedFraction))
		}
		if o.Planted != p.planted || o.Poisoned != p.poisoned {
			out.checks = append(out.checks, fmt.Sprintf("planted %d/%d, pinned %d/%d", o.Planted, o.Poisoned, p.planted, p.poisoned))
		}
	}
	if len(out.checks) > 0 {
		out.failed = out.attempted
	}
	return out
}

func (b *fleetBench) layers(first batch, rec *recorder, m map[string]metric) []string {
	o, _ := first.out.(fleetOutput)
	r := o.Resolver
	m["resolver.cache_hits"] = metric{float64(r.CacheHits), "count"}
	m["resolver.upstream_queries"] = metric{float64(r.UpstreamQueries), "count"}
	m["resolver.hits_per_upstream"] = metric{ratio(float64(r.CacheHits), float64(r.UpstreamQueries)), "ratio"}
	m["resolver.timeouts"] = metric{float64(r.Timeouts), "count"}
	m["resolver.failures"] = metric{float64(r.Failures), "count"}
	m["attack.planted_ratio"] = metric{ratio(float64(o.Planted), float64(o.Poisoned)), "ratio"}
	m["fleet.build_s"] = metric{durMedianS(rec.durations("build")), "s"}
	m["fleet.simulate_s"] = metric{durMedianS(rec.durations("simulate")), "s"}
	return nil
}
