// Package shiftsim is the long-horizon adversarial clock-shift engine: it
// runs the Chronos round — sample m, trim 2d, C1/C2, K-failure panic
// escalation, through the same chronos.Round driver the packet client
// and the wire Syncer run — over weeks to years of virtual time against
// attacker-controlled servers that serve *adaptive* offsets.
//
// The paper's headline claim ("to shift time on a Chronos NTP client by
// 100ms a strong MitM attacker would need 20 years of effort" — and its
// collapse to hours once DNS poisoning hands the attacker ≥ 2/3 of the
// pool) is a closed-form Markov computation (analysis.TimeToShift over
// stats.ExpectedTrialsToRun). This package validates it empirically: the
// engine measures the first time the client's clock error crosses the
// target, plus the round-level capture-run statistic the closed form
// models, and eval.ShiftStudy (E10) cross-tabulates both against the
// prediction.
//
// Two fidelity levels share that one round driver:
//
//   - Compressed (default): one engine iteration per sampling attempt.
//     Pool sampling is a real without-replacement draw from the seeded
//     RNG, honest samples carry per-server clock error and latency
//     asymmetry, malicious samples follow the Strategy, and virtual time
//     is the engine's own clock (no event queue): an O(1) hop between
//     rounds, so the engine sustains hundreds of thousands of simulated
//     rounds per second and a decade-long horizon is minutes of wall time.
//   - Wire (Config.Wire): a full packet-level chronos.Client against
//     ntpserver farms, with the strategy adapted through
//     ntpserver.RequestShiftStrategy. ~1000× slower; used to validate
//     that the compressed dynamics match the real loop.
//
// Everything is deterministic from Config.Seed at any parallelism: each
// trial owns its own seeded RNG (its simnet.Network's, in wire mode).
// Determinism is also what makes the E10 checkpoint/resume path sound:
// eval.ShiftStudyCheckpointed persists each trial's Result as it
// completes, and a resumed run replays the stored Results into the same
// per-trial slots — since a trial's bytes depend only on its seed, the
// resumed table is bit-identical to an uninterrupted one (pinned by the
// cmd/attacksim golden test).
//
// Run returns a Result carrying the first-crossing time, round count,
// panic count and the largest accepted update; RunLength < 0 disables
// the round cap so the horizon alone bounds the run. The crossval suite
// (crossval_test.go) holds the greedy strategy's empirical capture-run
// statistics to the closed-form model within the Monte-Carlo CI, and
// BenchmarkShiftEngine tracks the compressed path's rounds/sec — the
// throughput bar that keeps decade-scale horizons tractable — in the
// committed benchmark trajectory (bench/, gated by cmd/benchdiff).
package shiftsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
)

// Errors returned by Run.
var (
	ErrBadPool = errors.New("shiftsim: malicious count exceeds pool size")
	ErrBadAuth = errors.New("shiftsim: invalid auth model")
)

// Config parameterises one long-horizon run.
type Config struct {
	Seed int64 // simulation seed; 0 means 1

	PoolSize  int // Chronos pool size; default 133 (the paper's poisoned pool)
	Malicious int // attacker-controlled members; default 89

	Strategy Strategy       // attacker behaviour; nil means Greedy{}
	Client   chronos.Config // Chronos parameters; zero fields take NDSS'18 defaults

	Target  time.Duration // shift the attacker is after; default 100 ms
	Horizon time.Duration // virtual-time budget; default 30 days

	// MaxRounds caps the number of sync rounds (0 = horizon only).
	MaxRounds int

	// RunLength is the consecutive-capture run whose first completion is
	// recorded in Result.RoundsToRun — the statistic the closed-form bound
	// models. 0 derives ⌈Target/MaxStep⌉; negative disables tracking.
	RunLength int

	HonestErr time.Duration // honest servers' max clock error; default 2 ms
	Jitter    time.Duration // per-sample latency-asymmetry half-width; default 1.5 ms

	DriftPPM float64      // client crystal skew
	Wander   clock.Wander // benign drift random walk, stepped once per round

	// Auth models the authentication arms race (see auth.go): which
	// benign servers the client holds credentials for, how strong they
	// are, and what the on-path attacker does to the auth layer. nil
	// (the default) leaves the engine bit-identical to the pre-auth
	// behaviour. Compressed mode only.
	Auth *AuthModel

	Wire bool // full packet fidelity instead of the compressed fast path
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PoolSize == 0 {
		c.PoolSize = 133
		if c.Malicious == 0 {
			c.Malicious = 89 // the paper's poisoned pool
		}
	}
	if c.Strategy == nil {
		c.Strategy = Greedy{}
	}
	// Small pools sample everything; keep the client shape consistent.
	cc := chronos.NewRule(c.Client).Config()
	if cc.SampleSize > c.PoolSize {
		cc.SampleSize = c.PoolSize
		cc.Trim = cc.SampleSize / 3
		cc.MinReplies = 2 * cc.SampleSize / 3
		cc = chronos.NewRule(cc).Config()
	}
	c.Client = cc
	if c.Target == 0 {
		c.Target = 100 * time.Millisecond
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * 24 * time.Hour
	}
	if c.RunLength == 0 {
		c.RunLength = int(math.Ceil(float64(c.Target) / float64(MaxStep(c.Client))))
	}
	if c.HonestErr == 0 {
		c.HonestErr = 2 * time.Millisecond
	}
	if c.Jitter == 0 {
		c.Jitter = 1500 * time.Microsecond
	}
	if c.Auth != nil {
		// Normalize into a fresh value: the caller's AuthModel may be
		// shared across parallel trials and must not be mutated.
		a := c.Auth.withDefaults()
		c.Auth = &a
	}
	return c
}

// Result is one run's measurement.
type Result struct {
	Rounds   int // sync rounds started
	Attempts int // sampling attempts (incl. re-samples; excl. panic sweeps)

	Updates      int // normal-path clock updates
	Resamples    int
	Panics       int
	PanicUpdates int
	Captures     int // fresh attempts whose survivors were all malicious

	Shifted       bool          // |clock error| reached Target within the horizon
	TimeToShift   time.Duration // virtual time from start to the first crossing (0 if never)
	RoundsToShift int           // sync round of the first crossing (0 if never)

	// RoundsToRun is the round at which RunLength consecutive fresh-attempt
	// captures first completed (0 if never / disabled) — the empirical
	// counterpart of stats.ExpectedTrialsToRun.
	RoundsToRun int

	MaxOffset   time.Duration // largest |clock error| seen
	FinalOffset time.Duration // clock error at the end of the run
	Elapsed     time.Duration // virtual time simulated

	// MaxPush is the largest forward (attacker-direction) normal-path
	// update accepted — the step-size signature an anomaly detector would
	// see (compressed mode only).
	MaxPush time.Duration

	// Auth-model counters, zero unless Config.Auth is set.
	AuthRejected int // samples dropped by the client's credential policy
	Demobilized  int // benign servers killed by believed forged kisses
}

// setCounts fills the round counters from the round driver's Stats. Every
// round is one fresh attempt plus one per re-sample (the panic sweep is
// not an attempt).
func (r *Result) setCounts(st chronos.Stats) {
	r.Rounds = int(st.Rounds)
	r.Attempts = int(st.Rounds + st.Resamples)
	r.Updates = int(st.Updates)
	r.Resamples = int(st.Resamples)
	r.Panics = int(st.Panics)
	r.PanicUpdates = int(st.PanicUpdates)
}

// Run executes one long-horizon simulation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Malicious > cfg.PoolSize || cfg.PoolSize < 1 || cfg.Malicious < 0 {
		return nil, fmt.Errorf("%w: %d/%d", ErrBadPool, cfg.Malicious, cfg.PoolSize)
	}
	if cfg.Auth != nil {
		if err := cfg.Auth.validate(); err != nil {
			return nil, err
		}
		if cfg.Wire {
			return nil, fmt.Errorf("%w: the auth model is compressed-mode only", ErrBadAuth)
		}
	}
	if cfg.Wire {
		return runWire(cfg)
	}
	return newEngine(cfg).run()
}

// Sample runs trials independent engines seeded seed, seed+1, … and
// returns their results in seed order. It is the sequential inner loop of
// the Monte-Carlo studies; callers parallelise across grid points.
func Sample(cfg Config, seed int64, trials int) ([]*Result, error) {
	out := make([]*Result, trials)
	for i := range out {
		c := cfg
		c.Seed = seed + int64(i)
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// engine is the compressed-mode state. It keeps its own virtual clock
// and RNG: the round loop never schedules an event, so a simnet.Network
// would only add a queue nothing uses.
type engine struct {
	cfg    Config
	rng    *rand.Rand
	now    time.Time
	clk    *clock.Clock
	rule   chronos.Rule
	benign int

	honest  []time.Duration // per-benign-server clock error
	idx     []int           // sampling scratch (partial Fisher–Yates)
	offsets []time.Duration // per-attempt sample buffer
	fate    []uint8         // per-pool-member auth-layer outcome (auth.go)

	stats  chronos.Stats // the round driver's counters
	res    Result
	streak int // current fresh-attempt capture run
}

func newEngine(cfg Config) *engine {
	// Seeded and started exactly like simnet.New, so both fidelity
	// levels draw the same stream from the same origin.
	rng := rand.New(rand.NewSource(cfg.Seed))
	e := &engine{
		cfg:    cfg,
		rng:    rng,
		now:    epoch,
		clk:    clock.New(epoch, 0, cfg.DriftPPM),
		rule:   chronos.NewRule(cfg.Client),
		benign: cfg.PoolSize - cfg.Malicious,
		idx:    make([]int, cfg.PoolSize),
		honest: make([]time.Duration, cfg.PoolSize-cfg.Malicious),
		// The panic sweep samples the whole pool, so sizing the attempt
		// buffer for it up front keeps the round loop allocation-free
		// (rule evaluation sorts this scratch in place).
		offsets: make([]time.Duration, 0, cfg.PoolSize),
		fate:    make([]uint8, cfg.PoolSize),
	}
	for i := range e.idx {
		e.idx[i] = i
	}
	// Honest servers keep small fixed clock errors, like ntpserver.Farm.
	for i := range e.honest {
		e.honest[i] = time.Duration(rng.Int63n(int64(2*cfg.HonestErr))) - cfg.HonestErr
	}
	authCount := 0
	if cfg.Auth != nil {
		authCount = min(int(cfg.Auth.Frac*float64(e.benign)), e.benign)
	}
	for id := range e.fate {
		e.fate[id] = authFate(cfg.Auth, id, e.benign, authCount)
	}
	return e
}

// advance moves the virtual clock d forward (never back).
func (e *engine) advance(d time.Duration) {
	if d > 0 {
		e.now = e.now.Add(d)
	}
}

func (e *engine) run() (*Result, error) {
	end := epoch.Add(e.cfg.Horizon)
	for round := 1; ; round++ {
		if !e.now.Before(end) {
			break
		}
		if e.cfg.MaxRounds > 0 && round > e.cfg.MaxRounds {
			break
		}
		if e.cfg.Wander.Enabled() {
			e.clk.SetDrift(e.now, e.cfg.Wander.Next(e.rng, e.clk.DriftPPM()))
		}
		e.round(round)
		// Re-check the clock at the round boundary as well: with a
		// drifting client the target can be crossed *between* accepted
		// updates (e.g. during a C2-failure stretch), which wire mode
		// would observe at the next event.
		e.observeClock(round, e.now)
		if e.res.Shifted && (e.cfg.RunLength < 0 || e.res.RoundsToRun > 0) {
			break // every requested statistic is in
		}
		e.advance(e.cfg.Client.SyncInterval)
	}
	e.res.FinalOffset = e.clk.Offset(e.now)
	e.res.Elapsed = e.now.Sub(epoch)
	e.res.setCounts(e.stats)
	return &e.res, nil
}

// round executes one sync round through the chronos.Round driver — the
// same driver the packet client and the wire Syncer run: a fresh
// attempt, up to K re-samples, then a panic sweep. The engine keeps only
// its own draw, offsets, virtual time and observers.
func (e *engine) round(round int) {
	rnd := chronos.NewRound(&e.rule, &e.stats)
	for attempt, act := 0, chronos.Resample; ; attempt++ {
		swept := act == chronos.Panic
		if swept {
			e.sweep(round)
		} else {
			mal := e.sample(e.cfg.Client.SampleSize)
			if attempt == 0 {
				e.observeCapture(round, mal)
			}
			e.attempt(round, attempt, mal)
		}
		e.advance(e.cfg.Client.QueryTimeout)
		var v chronos.Verdict
		v, act = rnd.Next(e.offsets)
		switch act {
		case chronos.Apply:
			e.clk.Step(e.now, v.Update)
			if !swept && v.Update > e.res.MaxPush {
				e.res.MaxPush = v.Update
			}
			e.observeClock(round, e.now)
			return
		case chronos.Stop:
			return
		}
	}
}

// sample draws m distinct pool members (partial Fisher–Yates over the
// persistent index slice) and returns how many are malicious. The drawn
// indices sit in idx[:m]; indices ≥ benign are attacker servers.
func (e *engine) sample(m int) (malicious int) {
	n := len(e.idx)
	for i := 0; i < m; i++ {
		j := i + e.rng.Intn(n-i)
		e.idx[i], e.idx[j] = e.idx[j], e.idx[i]
		if e.idx[i] >= e.benign {
			malicious++
		}
	}
	return malicious
}

// attempt builds one sampling attempt's offsets for the m members drawn
// into idx[:m].
func (e *engine) attempt(round, attempt, mal int) {
	m := e.cfg.Client.SampleSize
	theta := e.clk.Offset(e.now)
	if e.cfg.Auth != nil && e.cfg.Auth.Move == MoveMACStrip {
		// Full MitM: the tamperer owns every reply it lets through, so
		// the strategy sees the whole sample as captured. (Captures in
		// the Result stays the raw hypergeometric sampling statistic.)
		mal = m
	}
	plan := e.cfg.Strategy.Plan(View{
		Round: round, Attempt: attempt,
		Observed:         theta,
		SampledMalicious: mal,
		SampleSize:       m,
		CaptureNeed:      e.rule.CaptureNeed(),
		PoolSize:         e.cfg.PoolSize,
		PoolMalicious:    e.cfg.Malicious,
		Config:           e.cfg.Client,
	})
	e.offsets = e.offsets[:0]
	for _, id := range e.idx[:m] {
		e.collect(id, theta, plan)
	}
}

// sweep builds the panic-mode full-pool sweep's offsets.
func (e *engine) sweep(round int) {
	theta := e.clk.Offset(e.now)
	plan := e.cfg.Strategy.Plan(View{
		Round: round, Panic: true,
		Observed:         theta,
		SampledMalicious: e.cfg.Malicious,
		SampleSize:       e.cfg.PoolSize,
		CaptureNeed:      e.rule.CaptureNeed(),
		PoolSize:         e.cfg.PoolSize,
		PoolMalicious:    e.cfg.Malicious,
		Config:           e.cfg.Client,
	})
	e.offsets = e.offsets[:0]
	for id := range e.fate {
		e.collect(id, theta, plan)
	}
}

// observeCapture tracks the fresh-attempt capture-run statistic.
func (e *engine) observeCapture(round, mal int) {
	if mal >= e.rule.CaptureNeed() {
		e.res.Captures++
		e.streak++
	} else {
		e.streak = 0
	}
	if e.cfg.RunLength > 0 && e.res.RoundsToRun == 0 && e.streak >= e.cfg.RunLength {
		e.res.RoundsToRun = round
	}
}

// observeClock updates the shift statistics after a clock step.
func (e *engine) observeClock(round int, now time.Time) {
	off := e.clk.Offset(now)
	if a := absDur(off); a > e.res.MaxOffset {
		e.res.MaxOffset = a
	}
	if !e.res.Shifted && absDur(off) >= e.cfg.Target {
		e.res.Shifted = true
		e.res.TimeToShift = now.Sub(epoch)
		e.res.RoundsToShift = round
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
