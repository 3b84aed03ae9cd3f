package chronos

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Property tests for the decision core the round driver owns: Rule's
// acceptance tests and panic average against naive copy-sort-trim
// references, and the driver's steps and counters against a reference
// escalation ladder, over random offsets, m, d, ω and ErrBound.

// randRule draws a rule shape: m in [1, 20], d in [0, m/2], ω and
// ErrBound up to 60 ms, MinReplies in [1, m], and a quorum MinSources
// one time in four.
func randRule(rng *rand.Rand) Rule {
	m := 1 + rng.Intn(20)
	cfg := Config{
		SampleSize: m,
		Trim:       rng.Intn(m/2 + 1),
		Omega:      time.Duration(1 + rng.Int63n(int64(30*time.Millisecond))),
		ErrBound:   time.Duration(1 + rng.Int63n(int64(60*time.Millisecond))),
		MinReplies: 1 + rng.Intn(m),
		Retries:    rng.Intn(4),
	}
	if rng.Intn(4) == 0 {
		cfg.MinSources = 1 + rng.Intn(m)
	}
	// Bypass NewRule's defaults so zero Trim and Retries stay zero.
	return Rule{cfg: cfg}
}

// randOffsets draws n offsets: a cluster around a random centre with
// occasional far outliers, so C1, C2 and the quorum all see both
// outcomes.
func randOffsets(rng *rand.Rand, n int) []time.Duration {
	centre := time.Duration(rng.Int63n(int64(120*time.Millisecond))) - 60*time.Millisecond
	spread := 1 + rng.Int63n(int64(80*time.Millisecond))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = centre + time.Duration(rng.Int63n(spread)-spread/2)
		if rng.Intn(6) == 0 {
			out[i] = time.Duration(rng.Int63n(int64(2*time.Second))) - time.Second
		}
	}
	return out
}

func refMean(xs []time.Duration) time.Duration {
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

// refEvaluate is the naive reference for Rule.Evaluate.
func refEvaluate(cfg Config, offsets []time.Duration) Verdict {
	s := slices.Clone(offsets)
	slices.Sort(s)
	if cfg.MinSources > 0 {
		if len(s) < cfg.MinSources {
			return Verdict{Reason: FailInsufficient}
		}
		// The largest window within 2ω; ties go to the lowest start.
		bestLo, best := 0, 1
		for lo := range s {
			hi := lo
			for hi+1 < len(s) && s[hi+1]-s[lo] <= 2*cfg.Omega {
				hi++
			}
			if hi-lo+1 > best {
				bestLo, best = lo, hi-lo+1
			}
		}
		c := s[bestLo : bestLo+best]
		v := Verdict{Update: refMean(c), Span: c[len(c)-1] - c[0]}
		if best < cfg.MinSources {
			v.Reason = FailQuorum
			return v
		}
		v.OK = true
		return v
	}
	if len(s) < cfg.MinReplies || len(s) <= 2*cfg.Trim {
		return Verdict{Reason: FailInsufficient}
	}
	surv := s[cfg.Trim : len(s)-cfg.Trim]
	v := Verdict{Update: refMean(surv), Span: surv[len(surv)-1] - surv[0]}
	switch {
	case v.Span > 2*cfg.Omega:
		v.Reason = FailC1
	case v.Update > cfg.ErrBound || v.Update < -cfg.ErrBound:
		v.Reason = FailC2
	default:
		v.OK = true
	}
	return v
}

// refPanic is the naive reference for the panic sweep: the middle third
// of the sorted replies, ⌊n/3⌋ trimmed from each end.
func refPanic(offsets []time.Duration) (time.Duration, bool) {
	if len(offsets) < 3 {
		return 0, false
	}
	s := slices.Clone(offsets)
	slices.Sort(s)
	return refMean(s[len(s)/3 : len(s)-len(s)/3]), true
}

func TestEvaluateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		rule := randRule(rng)
		offsets := randOffsets(rng, rng.Intn(rule.cfg.SampleSize+3))
		want := refEvaluate(rule.cfg, offsets)
		got := rule.Evaluate(slices.Clone(offsets))
		if got != want {
			t.Fatalf("case %d %+v on %v:\n got %+v\nwant %+v", i, rule.cfg, offsets, got, want)
		}
		if got.OK && rule.cfg.MinSources == 0 {
			if got.Update > rule.cfg.ErrBound || got.Update < -rule.cfg.ErrBound || got.Span > 2*rule.cfg.Omega {
				t.Fatalf("case %d: accepted %+v outside ErrBound %v / 2ω %v", i, got, rule.cfg.ErrBound, 2*rule.cfg.Omega)
			}
		}
	}
}

func TestPanicUpdateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var rule Rule
	for i := 0; i < 20000; i++ {
		offsets := randOffsets(rng, rng.Intn(40))
		want, wantOK := refPanic(offsets)
		got, ok := rule.panicUpdate(slices.Clone(offsets))
		if got != want || ok != wantOK {
			t.Fatalf("case %d on %v: got %v/%v, want %v/%v", i, offsets, got, ok, want, wantOK)
		}
		if n := len(offsets); ok && n-2*PanicTrim(n) < (n+2)/3 {
			t.Fatalf("n=%d: panic keeps %d replies, fewer than a third", n, n-2*PanicTrim(n))
		}
	}
}

// TestRoundDriverMatchesReference replays random rounds through the
// driver and a reference ladder side by side: every step, verdict and
// counter must agree.
func TestRoundDriverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		rule := randRule(rng)
		var got, want Stats
		r := NewRound(&rule, &got)
		want.Rounds++
		for failures := 0; ; {
			offsets := randOffsets(rng, rng.Intn(rule.cfg.SampleSize+3))
			v, act := r.Next(slices.Clone(offsets))
			wv := refEvaluate(rule.cfg, offsets)
			if wv.Reason == FailInsufficient {
				want.IncompleteRound++
			}
			wact := Panic
			switch {
			case wv.OK:
				wact = Apply
				want.Updates++
			case failures < rule.cfg.Retries:
				wact = Resample
				want.Resamples++
				failures++
			default:
				want.Panics++
			}
			if v != wv || act != wact {
				t.Fatalf("case %d attempt %d: got %v %+v, want %v %+v", i, failures, act, v, wact, wv)
			}
			if act == Apply {
				break
			}
			if act == Panic {
				sweep := randOffsets(rng, rng.Intn(30))
				v, act = r.Next(slices.Clone(sweep))
				upd, ok := refPanic(sweep)
				wv, wact = Verdict{OK: true, Update: upd}, Apply
				if ok {
					want.PanicUpdates++
				} else {
					wv, wact = Verdict{Reason: FailInsufficient}, Stop
					want.IncompleteRound++
				}
				if v != wv || act != wact {
					t.Fatalf("case %d sweep: got %v %+v, want %v %+v", i, act, v, wact, wv)
				}
				break
			}
		}
		if got != want {
			t.Fatalf("case %d: stats %+v, want %+v", i, got, want)
		}
	}
}
