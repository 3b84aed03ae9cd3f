package chronos

import (
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/simnet"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// failing returns a fresh 9-sample attempt that passes C1 (zero spread)
// but fails C2 (every server 10 s off).
func failing() []time.Duration {
	out := make([]time.Duration, 9)
	for i := range out {
		out[i] = 10 * time.Second
	}
	return out
}

// TestRoundPanicsAfterExactlyKResamples encodes the NDSS'18 escalation
// spec at the round driver: the client re-samples up to K (= Retries)
// times, so panic mode triggers on the (K+1)-th consecutive failed
// attempt — never earlier — and the sweep that follows ends the round.
func TestRoundPanicsAfterExactlyKResamples(t *testing.T) {
	for _, k := range []int{0, 1, 2, 5} {
		rule := NewRule(Config{SampleSize: 9, MinReplies: 6})
		rule.cfg.Retries = k // 0 would otherwise take the default
		var st Stats
		r := NewRound(&rule, &st)
		for attempt := 0; attempt < k; attempt++ {
			if v, got := r.Next(failing()); got != Resample || v.Reason != FailC2 {
				t.Fatalf("K=%d: failed attempt %d gave %v (%v), want resample", k, attempt, got, v.Reason)
			}
		}
		if _, got := r.Next(failing()); got != Panic {
			t.Fatalf("K=%d: failure %d gave %v, want panic", k, k+1, got)
		}
		sweep := []time.Duration{ms(-100), ms(7), ms(100)}
		if v, got := r.Next(sweep); got != Apply || !v.OK || v.Update != ms(7) {
			t.Fatalf("K=%d: sweep gave %v %+v, want apply 7ms", k, got, v)
		}
		want := Stats{Rounds: 1, Resamples: uint64(k), Panics: 1, PanicUpdates: 1}
		if st != want {
			t.Fatalf("K=%d: stats %+v, want %+v", k, st, want)
		}
	}

	// A sweep with fewer than 3 replies stops the round without an update.
	rule := NewRule(Config{SampleSize: 9, MinReplies: 6, Retries: 1})
	var st Stats
	r := NewRound(&rule, &st)
	r.Next(nil)
	if _, got := r.Next(nil); got != Panic {
		t.Fatalf("second starved attempt gave %v, want panic", got)
	}
	if v, got := r.Next([]time.Duration{ms(1), ms(2)}); got != Stop || v.OK || v.Reason != FailInsufficient {
		t.Fatalf("2-reply sweep gave %v %+v, want stop", got, v)
	}
	if want := (Stats{Rounds: 1, Resamples: 1, Panics: 1, IncompleteRound: 3}); st != want {
		t.Fatalf("starved round stats %+v, want %+v", st, want)
	}
}

// TestRoundSuccessBeforePanic: a success on any attempt applies the
// update; the escalation never reaches panic when an attempt succeeds.
func TestRoundSuccessBeforePanic(t *testing.T) {
	rule := NewRule(Config{SampleSize: 3, Trim: 1, MinReplies: 3})
	var st Stats
	r := NewRound(&rule, &st)
	if _, got := r.Next([]time.Duration{0, ms(60), ms(120)}); got != Resample {
		t.Fatalf("first failure: %v", got)
	}
	if _, got := r.Next([]time.Duration{ms(40), ms(40), ms(40)}); got != Resample {
		t.Fatalf("second failure: %v", got)
	}
	if v, got := r.Next([]time.Duration{ms(3), ms(3), ms(3)}); got != Apply || v.Update != ms(3) {
		t.Fatalf("success after failures gave %v %+v, want apply 3ms", got, v)
	}
	if want := (Stats{Rounds: 1, Updates: 1, Resamples: 2}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestPanicTrimOddPoolSizes: panic mode trims ⌊n/3⌋ from each end, so odd
// pool sizes keep a strict middle-third majority.
func TestPanicTrimOddPoolSizes(t *testing.T) {
	rule := NewRule(Config{})
	cases := []struct {
		offsets []time.Duration
		want    time.Duration
	}{
		// n=3: trim 1 each side, the median survives.
		{[]time.Duration{ms(-100), ms(7), ms(100)}, ms(7)},
		// n=5: trim 1 each side, middle three average.
		{[]time.Duration{ms(-50), ms(1), ms(2), ms(3), ms(50)}, ms(2)},
		// n=7: trim 2 each side, middle three average.
		{[]time.Duration{ms(-90), ms(-80), ms(4), ms(5), ms(6), ms(80), ms(90)}, ms(5)},
		// n=9: trim 3 each side.
		{[]time.Duration{ms(-9), ms(-8), ms(-7), ms(10), ms(11), ms(12), ms(70), ms(80), ms(90)}, ms(11)},
	}
	for _, tc := range cases {
		got, ok := rule.panicUpdate(tc.offsets)
		if !ok {
			t.Fatalf("panicUpdate(%v) not ok", tc.offsets)
		}
		if got != tc.want {
			t.Fatalf("panicUpdate(n=%d) = %v, want %v", len(tc.offsets), got, tc.want)
		}
		if trim := PanicTrim(len(tc.offsets)); len(tc.offsets)-2*trim < 1 {
			t.Fatalf("n=%d: trim %d leaves no survivors", len(tc.offsets), trim)
		}
	}
	// Unsorted input must behave identically: the rule sorts internally.
	if got, _ := rule.panicUpdate([]time.Duration{ms(100), ms(7), ms(-100)}); got != ms(7) {
		t.Fatalf("panicUpdate on unsorted input = %v, want 7ms", got)
	}
	// Fewer than 3 replies: nothing survives the third-trimming.
	if _, ok := rule.panicUpdate([]time.Duration{ms(1), ms(2)}); ok {
		t.Fatal("panicUpdate accepted a 2-reply sweep")
	}
}

// TestEvaluateBoundaryCases pins the inclusive boundaries of C1 and C2:
// survivors exactly 2ω apart pass C1, an average exactly at ErrBound
// passes C2, and one nanosecond beyond either bound fails.
func TestEvaluateBoundaryCases(t *testing.T) {
	// m=9, d=3 → three survivors keep the boundary arithmetic transparent.
	rule := NewRule(Config{SampleSize: 9, MinReplies: 6, Omega: ms(25), ErrBound: ms(30)})
	if rule.Config().Trim != 3 {
		t.Fatalf("defaults: trim = %d, want m/3 = 3", rule.Config().Trim)
	}
	pad := func(low, mid, high time.Duration) []time.Duration {
		// Three extreme values on each side are trimmed away; the middle
		// three are the survivors under test.
		return []time.Duration{
			-time.Second, -time.Second, -time.Second,
			low, mid, high,
			time.Second, time.Second, time.Second,
		}
	}

	// Survivors exactly 2ω apart, average 0: accepted.
	v := rule.Evaluate(pad(ms(-25), 0, ms(25)))
	if !v.OK || v.Span != ms(50) || v.Update != 0 {
		t.Fatalf("span=2ω rejected: %+v", v)
	}
	// One nanosecond over 2ω: C1 fails.
	v = rule.Evaluate(pad(ms(-25), 0, ms(25)+time.Nanosecond))
	if v.OK || v.Reason != FailC1 {
		t.Fatalf("span=2ω+1ns accepted: %+v", v)
	}
	// Average exactly at ErrBound: accepted (positive and negative side).
	v = rule.Evaluate(pad(ms(30), ms(30), ms(30)))
	if !v.OK || v.Update != ms(30) {
		t.Fatalf("avg=+ErrBound rejected: %+v", v)
	}
	v = rule.Evaluate(pad(ms(-30), ms(-30), ms(-30)))
	if !v.OK || v.Update != ms(-30) {
		t.Fatalf("avg=-ErrBound rejected: %+v", v)
	}
	// One nanosecond beyond ErrBound: C2 fails.
	v = rule.Evaluate(pad(ms(30)+time.Nanosecond, ms(30)+time.Nanosecond, ms(30)+time.Nanosecond))
	if v.OK || v.Reason != FailC2 {
		t.Fatalf("avg=ErrBound+1ns accepted: %+v", v)
	}
	// Reply floor: one short of MinReplies is insufficient.
	v = rule.Evaluate([]time.Duration{0, 0, 0, 0, 0})
	if v.OK || v.Reason != FailInsufficient {
		t.Fatalf("5 replies under MinReplies=6 accepted: %+v", v)
	}
}

// TestClientPanicEscalationOnWire drives the full packet client against a
// pool whose every server lies by a constant 10 s: each attempt passes C1
// (zero spread) but fails C2, so every round must consume exactly K
// re-samples and then panic — and the panic's third-trimmed average hands
// the clock to the liars, reproducing the paper's "panic mode offers no
// protection against a pool supermajority" observation.
func TestClientPanicEscalationOnWire(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 604})
	lie := 10 * time.Second
	_, ips, err := ntpserver.MaliciousFarm(n, simnet.IPv4(66, 0, 0, 1), 30, ntpserver.ConstantShift(lie))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := n.AddHost(simnet.IPv4(10, 0, 0, 9))
	cli := New(ch, &clock.Clock{}, nil, Config{SyncInterval: 16 * time.Second})
	if err := cli.SeedPool(ips); err != nil {
		t.Fatal(err)
	}
	n.RunFor(10 * time.Minute)

	st := cli.Stats()
	if st.Panics == 0 {
		t.Fatal("no panic despite every attempt failing C2")
	}
	if st.Resamples != st.Panics*uint64(cli.Config().Retries) {
		t.Fatalf("resamples = %d with %d panics and K=%d: escalation fired early or late",
			st.Resamples, st.Panics, cli.Config().Retries)
	}
	if st.PanicUpdates == 0 {
		t.Fatal("panic mode never applied the supermajority average")
	}
	// The very first panic steps the clock by ~10 s; after that the
	// shifted clock agrees with the liars and normal rounds resume.
	if off := cli.Offset(); off < lie-100*time.Millisecond {
		t.Fatalf("offset = %v, want ≈ %v after panic capitulation", off, lie)
	}
}
