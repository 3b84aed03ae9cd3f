package main

import (
	"fmt"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/shiftsim"
)

// shiftArms are the six arms of shift-e11, run one after another on the
// paper's 133-server pool. The same Chronos rule runs four ways across
// them: steady C1/C2 (honest-majority), escalation (the poisoned arms),
// the panic sweep (auth-c1c2 starves into panic) and quorum
// (auth-quorum3).
var shiftArms = []struct {
	name string
	cfg  shiftsim.Config
}{
	{"honest-majority", shiftsim.Config{Malicious: 33}},
	{"poisoned-greedy", shiftsim.Config{Malicious: 89, Strategy: shiftsim.Greedy{}}},
	{"poisoned-stealth", shiftsim.Config{Malicious: 89, Strategy: shiftsim.Stealth{}}},
	{"poisoned-intermittent", shiftsim.Config{Malicious: 89, Strategy: shiftsim.Intermittent{}}},
	{"auth-c1c2", shiftsim.Config{Malicious: 89,
		Auth: &shiftsim.AuthModel{Frac: 2.0 / 3.0, Scheme: shiftsim.AuthSHA256, Move: shiftsim.MoveShift}}},
	{"auth-quorum3", shiftsim.Config{Malicious: 89, Client: chronos.Config{MinSources: 3},
		Auth: &shiftsim.AuthModel{Frac: 2.0 / 3.0, Scheme: shiftsim.AuthSHA256, Move: shiftsim.MoveShift}}},
}

// shiftBench is shift-e11: the compressed long-horizon engine. One
// batch is one pass over the six arms at a fixed round budget each.
type shiftBench struct {
	cfgs []shiftsim.Config
}

func newShiftBench(e env) *shiftBench {
	b := &shiftBench{}
	for i, arm := range shiftArms {
		cfg := arm.cfg
		cfg.Seed = e.seed + int64(i)*10_007
		cfg.PoolSize = 133
		cfg.MaxRounds = e.sc.shiftRounds
		cfg.Target = time.Hour // unreachable, so every arm runs its whole budget
		cfg.Horizon = 10 * 365 * 24 * time.Hour
		cfg.RunLength = -1
		b.cfgs = append(b.cfgs, cfg)
	}
	return b
}

func (b *shiftBench) keepsState() bool { return false }

func (b *shiftBench) perBatchSetup() bool { return false }

// setup runs every arm for a single round: what shiftsim.Run costs
// before its round loop (the simulated network with its event queue,
// the pool's clock errors, the auth model's credentials). The timed
// passes build their engines the same way, so this is the share of a
// pass that does not grow with the round budget.
func (b *shiftBench) setup(*recorder) error {
	for i, cfg := range b.cfgs {
		cfg.MaxRounds = 1
		if _, err := shiftsim.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", shiftArms[i].name, err)
		}
	}
	return nil
}

func (b *shiftBench) teardown() {}

func (b *shiftBench) batch(rec *recorder) batch {
	var out batch
	results := make([]shiftsim.Result, len(b.cfgs))
	t0 := time.Now()
	for i, cfg := range b.cfgs {
		out.attempted += int64(cfg.MaxRounds)
		id, k, s0 := rec.id(), rec.kind("arm."+shiftArms[i].name), rec.now()
		var res *shiftsim.Result
		var err error
		rec.do("arm."+shiftArms[i].name, func() { res, err = shiftsim.Run(cfg) })
		rec.add(id, k, s0)
		switch {
		case err != nil:
			out.checks = append(out.checks, fmt.Sprintf("%s: %v", shiftArms[i].name, err))
		case res.Rounds != cfg.MaxRounds:
			out.checks = append(out.checks, fmt.Sprintf("%s: ran %d of %d rounds", shiftArms[i].name, res.Rounds, cfg.MaxRounds))
		default:
			results[i] = *res
			out.work += float64(res.Rounds)
			continue
		}
		out.failed += int64(cfg.MaxRounds)
	}
	out.latencies = []time.Duration{time.Since(t0)}
	out.out = results
	return out
}

func (b *shiftBench) layers(first batch, rec *recorder, m map[string]metric) []string {
	results, _ := first.out.([]shiftsim.Result)
	var rejected int
	for i, res := range results {
		arm := shiftArms[i].name
		m["chronos.attempts_per_round."+arm] = metric{ratio(float64(res.Attempts), float64(res.Rounds)), "ratio"}
		m["chronos.resamples."+arm] = metric{float64(res.Resamples), "count"}
		m["chronos.panics."+arm] = metric{float64(res.Panics), "count"}
		m["chronos.captures."+arm] = metric{float64(res.Captures), "count"}
		m["shiftsim.run_s."+arm] = metric{durMedianS(rec.durations("arm." + arm)), "s"}
		rejected += res.AuthRejected
	}
	m["shiftsim.auth_rejected"] = metric{float64(rejected), "count"}
	return nil
}
