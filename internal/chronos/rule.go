package chronos

import (
	"math/rand"
	"time"
)

// This file is the Chronos decision core, detached from any network: Rule
// is the pure per-attempt acceptance test (trim, C1, C2, or the quorum)
// and the panic-mode average, and Round is the round driver built on it —
// the re-sample/panic escalation plus every round counter in Stats, as a
// state machine that does no I/O. Each substrate — the simnet Client, the
// real-socket wirenet.Syncer and the compressed shiftsim engine — keeps
// only its own sample draw, queries, clock stepping and observers, feeds
// each attempt's offsets to Round.Next and carries out the step it gets
// back. So "the round loop the closed-form bound models" and "the round
// loop every fidelity level runs" are one implementation.

// FailReason classifies why one sampling attempt was rejected.
type FailReason int

// Attempt failure reasons.
const (
	FailNone         FailReason = iota
	FailInsufficient            // fewer replies than MinReplies, or too few to trim
	FailC1                      // survivors spread over more than 2ω
	FailC2                      // |survivor average| exceeds ErrBound
	FailQuorum                  // largest agreeing cluster smaller than MinSources
)

// String implements fmt.Stringer.
func (r FailReason) String() string {
	switch r {
	case FailNone:
		return "ok"
	case FailInsufficient:
		return "insufficient-replies"
	case FailC1:
		return "c1-spread"
	case FailC2:
		return "c2-errbound"
	case FailQuorum:
		return "quorum-insufficient"
	default:
		return "FailReason(?)"
	}
}

// Verdict is the outcome of applying the update rule to one attempt's
// offset samples.
type Verdict struct {
	OK     bool          // both C1 and C2 hold; Update may be applied
	Update time.Duration // survivor average (the clock correction)
	Span   time.Duration // survivor max − min (the C1 statistic)
	Reason FailReason    // FailNone when OK
}

// Rule is the pure Chronos per-attempt decision procedure, detached from
// any network. Construct it with NewRule so the NDSS'18 defaults apply.
type Rule struct {
	cfg Config
}

// NewRule builds a Rule with cfg's defaults resolved.
func NewRule(cfg Config) Rule { return Rule{cfg: cfg.withDefaults()} }

// Config returns the effective configuration (defaults applied).
func (r Rule) Config() Config { return r.cfg }

// CaptureNeed returns m − d: the number of attacker samples from which
// every trimmed-mean survivor is attacker-controlled (the hypergeometric
// threshold the closed-form analysis uses).
func (r Rule) CaptureNeed() int { return r.cfg.SampleSize - r.cfg.Trim }

// SampleIndices draws one round's sample: min(SampleSize, poolSize)
// distinct pool indices chosen uniformly at random. Both the simnet
// chronos.Client and the real-socket wirenet.Syncer draw through this
// method, so for one seed the two consume the RNG identically and sample
// the same server sequence — the property the transport-conformance
// tests pin.
func (r Rule) SampleIndices(rng *rand.Rand, poolSize int) []int {
	m := r.cfg.SampleSize
	if m > poolSize {
		m = poolSize
	}
	return rng.Perm(poolSize)[:m]
}

// Evaluate applies the Chronos update rule to one attempt's samples:
// discard attempts with too few replies, trim d from each end, then accept
// the survivors' average iff (C1) they lie within 2ω of each other and
// (C2) the average is within ErrBound of the local clock.
func (r Rule) Evaluate(offsets []time.Duration) Verdict {
	if r.cfg.MinSources > 0 {
		return r.evaluateQuorum(offsets)
	}
	if len(offsets) < r.cfg.MinReplies || len(offsets) <= 2*r.cfg.Trim {
		return Verdict{Reason: FailInsufficient}
	}
	surv := trimmed(offsets, r.cfg.Trim)
	span := surv[len(surv)-1] - surv[0]
	avg := mean(surv)
	switch {
	case span > 2*r.cfg.Omega:
		return Verdict{Update: avg, Span: span, Reason: FailC1}
	case absDur(avg) > r.cfg.ErrBound:
		return Verdict{Update: avg, Span: span, Reason: FailC2}
	default:
		return Verdict{OK: true, Update: avg, Span: span}
	}
}

// evaluateQuorum is the chrony-style minsources acceptance test E11
// contrasts against C1/C2: sort the samples, find the largest cluster
// agreeing within 2ω, and accept its average iff it holds at least
// MinSources members. There is no trim and no absolute error bound —
// an attacker who musters MinSources agreeing sources wins outright,
// while a KoD-denial attacker who starves the client below MinSources
// replies wins the other way. Span reports the winning cluster's
// spread.
func (r Rule) evaluateQuorum(offsets []time.Duration) Verdict {
	if len(offsets) < r.cfg.MinSources {
		return Verdict{Reason: FailInsufficient}
	}
	sorted := trimmed(offsets, 0) // sorts in place, like the classic path
	best, bestLo := 1, 0
	for lo, hi := 0, 0; hi < len(sorted); hi++ {
		for sorted[hi]-sorted[lo] > 2*r.cfg.Omega {
			lo++
		}
		if hi-lo+1 > best {
			best, bestLo = hi-lo+1, lo
		}
	}
	cluster := sorted[bestLo : bestLo+best]
	avg := mean(cluster)
	span := cluster[len(cluster)-1] - cluster[0]
	if best < r.cfg.MinSources {
		return Verdict{Update: avg, Span: span, Reason: FailQuorum}
	}
	return Verdict{OK: true, Update: avg, Span: span}
}

// PanicTrim returns how many samples panic mode discards from each end of
// a full-pool sweep of n replies: the top and bottom thirds, ⌊n/3⌋ each.
func PanicTrim(n int) int { return n / 3 }

// panicUpdate computes the panic-mode correction from a full-pool sweep:
// trim the top and bottom thirds and trust the middle third's average,
// with no C1/C2 checks. ok is false when fewer than 3 replies arrived
// (nothing survives the trim).
func (r Rule) panicUpdate(offsets []time.Duration) (update time.Duration, ok bool) {
	if len(offsets) < 3 {
		return 0, false
	}
	return mean(trimmed(offsets, PanicTrim(len(offsets)))), true
}

// Action is the round driver's next step for its substrate.
type Action int

// Round steps.
const (
	Apply    Action = iota // step the clock by Verdict.Update; the round is over
	Resample               // query a fresh sample of m servers and feed its offsets
	Panic                  // query the whole pool and feed the sweep's offsets
	Stop                   // the round is over and the clock stays as it is
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Apply:
		return "apply"
	case Resample:
		return "resample"
	case Panic:
		return "panic"
	case Stop:
		return "stop"
	default:
		return "Action(?)"
	}
}

// Round drives one sync round. It opens with a fresh sample: the
// substrate queries the servers it draws, hands the offsets that came
// back to Next, and carries out the step Next returns until that step is
// Apply or Stop. Per the NDSS'18 spec the client re-samples up to K
// (= Config.Retries) times, so panic mode triggers on the (K+1)-th
// consecutive failed attempt of a round. A Round is a value: substrates
// keep it on the stack or in their own state, never on the heap per
// round.
type Round struct {
	rule     *Rule
	stats    *Stats
	failures int
	panicked bool
}

// NewRound opens a round under rule. The round counts itself and every
// decision it makes into stats: Rounds, Updates, Resamples, Panics,
// PanicUpdates and IncompleteRound.
func NewRound(rule *Rule, stats *Stats) Round {
	stats.Rounds++
	return Round{rule: rule, stats: stats}
}

// Next folds in the offsets of the query the previous step asked for
// (rule evaluation sorts them in place) and returns the verdict and the
// next step. After a sample the verdict is the rule's and the step is
// Apply, Resample or Panic; after the panic sweep the verdict holds the
// middle third's average (OK) or FailInsufficient, and the step is Apply
// or Stop.
func (d *Round) Next(offsets []time.Duration) (Verdict, Action) {
	if d.panicked {
		upd, ok := d.rule.panicUpdate(offsets)
		if !ok {
			d.stats.IncompleteRound++
			return Verdict{Reason: FailInsufficient}, Stop
		}
		d.stats.PanicUpdates++
		return Verdict{OK: true, Update: upd}, Apply
	}
	v := d.rule.Evaluate(offsets)
	if v.Reason == FailInsufficient {
		d.stats.IncompleteRound++
	}
	switch {
	case v.OK:
		d.stats.Updates++
		return v, Apply
	case d.failures < d.rule.cfg.Retries:
		d.failures++
		d.stats.Resamples++
		return v, Resample
	default:
		d.panicked = true
		d.stats.Panics++
		return v, Panic
	}
}
