package main

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/wirenet"
	"chronosntp/internal/wirenet/interoptest"
)

// wire-sync runs Syncer.SyncRound over UDPTransport against a loopback
// farm: the chronosd -upstream path, and the client side of wirenet
// (dial per exchange, the Syncer) that wire-serve does not reach.
const (
	syncHonest    = 21
	syncMalicious = 9 // below a third of the pool
	syncHonestErr = 2 * time.Millisecond
	// syncSlack is how far the final correction may lie outside the
	// honest servers' offsets: loopback delay asymmetry, not policy.
	syncSlack = time.Millisecond
)

type syncBench struct {
	seed   int64
	rounds int
	farm   *interoptest.Farm
}

// syncOutput is what a batch must reproduce exactly.
type syncOutput struct {
	Stats               chronos.Stats
	Exchanges, Timeouts int
}

func newSyncBench(e env) *syncBench {
	return &syncBench{seed: e.seed, rounds: e.sc.syncRounds}
}

func (b *syncBench) keepsState() bool { return true }

func (b *syncBench) perBatchSetup() bool { return false }

func (b *syncBench) setup(*recorder) error {
	farm, err := interoptest.StartFarm(interoptest.FarmConfig{
		Honest: syncHonest, HonestErr: syncHonestErr, Malicious: syncMalicious, Seed: b.seed,
	})
	if err != nil {
		return err
	}
	b.farm = farm
	return nil
}

func (b *syncBench) teardown() {
	if b.farm != nil {
		b.farm.Close()
		b.farm = nil
	}
}

// timedTransport wraps UDPTransport to count exchanges and failures and
// to record one span per exchange under the enclosing round's id.
type timedTransport struct {
	inner     wirenet.UDPTransport
	rec       *recorder
	kind      uint8
	round     uint64
	exchanges int
	errors    int
	timeouts  int
}

func (t *timedTransport) Exchange(server netip.AddrPort, timeout time.Duration) (wirenet.Sample, error) {
	s0 := t.rec.now()
	s, err := t.inner.Exchange(server, timeout)
	t.rec.add(t.round, t.kind, s0)
	t.exchanges++
	if err != nil {
		t.errors++
		if errors.Is(err, wirenet.ErrTimeout) {
			t.timeouts++
		}
	}
	return s, err
}

func (t *timedTransport) Step(d time.Duration) { t.inner.Step(d) }

func (b *syncBench) batch(rec *recorder) batch {
	out := batch{attempted: int64(b.rounds)}
	tr := &timedTransport{rec: rec, kind: rec.kind("exchange")}
	s, err := wirenet.NewSyncer(tr, wirenet.SyncerConfig{Pool: b.farm.Pool, Seed: b.seed})
	if err != nil {
		out.failed = out.attempted
		out.checks = append(out.checks, err.Error())
		return out
	}
	errBound := s.Config().ErrBound
	roundK := rec.kind("round")
	out.latencies = make([]time.Duration, 0, b.rounds)
	for i := 0; i < b.rounds; i++ {
		tr.round = rec.id()
		errs := tr.errors
		s0 := rec.now()
		t0 := time.Now()
		trace := s.SyncRound()
		d := time.Since(t0)
		rec.add(tr.round, roundK, s0)
		out.latencies = append(out.latencies, d)
		if tr.errors > errs || (trace.Applied && abs(trace.Update) > errBound) {
			out.failed++
			if trace.Applied && abs(trace.Update) > errBound {
				out.checks = append(out.checks, fmt.Sprintf("round %d applied %v, beyond ErrBound %v", i, trace.Update, errBound))
			}
		}
	}
	// The unit of work is an exchange, not a round: how many exchanges a
	// round takes depends on the seed's draws (resamples, panic sweeps).
	out.work = float64(tr.exchanges - tr.errors)
	if tr.errors > 0 {
		out.checks = append(out.checks, fmt.Sprintf("%d of %d exchanges failed", tr.errors, tr.exchanges))
	}
	lo, hi := b.farm.Offsets[0], b.farm.Offsets[0]
	for _, off := range b.farm.Offsets[:syncHonest] {
		lo, hi = min(lo, off), max(hi, off)
	}
	if c := s.Correction(); c < lo-syncSlack || c > hi+syncSlack {
		out.checks = append(out.checks, fmt.Sprintf("final correction %v outside the honest offsets [%v, %v]", c, lo, hi))
		out.failed = out.attempted
	}
	out.out = syncOutput{Stats: s.Stats(), Exchanges: tr.exchanges, Timeouts: tr.timeouts}
	return out
}

func abs(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func (b *syncBench) layers(first batch, rec *recorder, m map[string]metric) []string {
	o, _ := first.out.(syncOutput)
	ex := rec.durations("exchange")
	m["wirenet.exchange_p50_us"] = metric{durUS(percentile(ex, 0.5)), "us"}
	m["wirenet.exchange_p99_us"] = metric{durUS(percentile(ex, 0.99)), "us"}
	m["wirenet.exchanges_per_round"] = metric{ratio(float64(o.Exchanges), float64(o.Stats.Rounds)), "ratio"}
	m["wirenet.exchange_timeouts"] = metric{float64(o.Timeouts), "count"}
	m["sync.round_p99_ms"] = metric{durMS(percentile(rec.durations("round"), 0.99)), "ms"}
	m["chronos.round_self_us"] = metric{meanUS(rec.selfTimes("round", "exchange")), "us"}
	m["sync.updates"] = metric{float64(o.Stats.Updates), "count"}
	m["sync.resamples"] = metric{float64(o.Stats.Resamples), "count"}
	m["sync.panics"] = metric{float64(o.Stats.Panics), "count"}
	m["sync.panic_updates"] = metric{float64(o.Stats.PanicUpdates), "count"}
	return nil
}
