package shiftsim

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"chronosntp/internal/clock"
)

// The equivalence grid: every auth move × scheme × credentialed fraction
// × attacker share × strategy, plus the nil model under each share and
// strategy.
var (
	gridMoves     = []string{MoveShift, MoveMACStrip, MoveForgeKoD, MoveCookieReplay}
	gridSchemes   = []string{AuthMD5, AuthSHA256, AuthNTS}
	gridMalicious = []int{0, 33, 89, 133}
	gridStrats    = []Strategy{Greedy{}, Stealth{}, Intermittent{}}
)

// gridConfigs is the 576-config auth grid (Frac 0, 0.3, ⅔, 1) after 12
// nil-model configs with a wandering crystal, each run for 300 rounds
// of a 3 ppm client under its own seed.
func gridConfigs() []Config {
	var out []Config
	add := func(mal int, s Strategy, auth *AuthModel) {
		out = append(out, Config{
			Seed: int64(len(out) + 1), PoolSize: 133, Malicious: mal,
			Strategy: s, MaxRounds: 300, DriftPPM: 3, Auth: auth,
		})
	}
	for _, mal := range gridMalicious {
		for _, s := range gridStrats {
			add(mal, s, nil)
			out[len(out)-1].Wander = clock.Wander{StepPPM: 0.2, MaxPPM: 20}
		}
	}
	for _, move := range gridMoves {
		for _, scheme := range gridSchemes {
			for _, frac := range []float64{0, 0.3, 2.0 / 3.0, 1} {
				for _, mal := range gridMalicious {
					for _, s := range gridStrats {
						add(mal, s, &AuthModel{Frac: frac, Scheme: scheme, Move: move})
					}
				}
			}
		}
	}
	return out
}

// gridDigest is the SHA-256 over the %+v of every grid config's Result,
// one per line, as the engine produced them when it still ran on a
// simnet.Network and decided each sample's auth outcome per sample.
const gridDigest = "872474c62b53c6eb7813a75a8876568483996a9dd3d5ac29528fabb07da56f39"

// TestResultGridDigest pins the engine's outputs bit for bit across the
// grid: any change to RNG consumption, virtual time or an auth decision
// moves the digest.
func TestResultGridDigest(t *testing.T) {
	cfgs := gridConfigs()
	if len(cfgs) != 588 {
		t.Fatalf("grid has %d configs, want 588", len(cfgs))
	}
	h := sha256.New()
	for _, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%+v\n", *res)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != gridDigest {
		t.Fatalf("grid digest %s, want %s", got, gridDigest)
	}
}

// refDecision is the per-sample auth decision the engine used to make on
// every sample (the authOffset switch), kept verbatim as the reference
// for the fate table with each return mapped to the fate it stands for.
// A nil model is the old unauthenticated sampleOffset path.
func refDecision(a *AuthModel, id, benign int) uint8 {
	if a == nil {
		if id >= benign {
			return fatePlan
		}
		return fateHonest
	}
	authCount := int(a.Frac * float64(benign))
	if authCount > benign {
		authCount = benign
	}
	reqAuth := authCount > 0
	forge := SchemeForgeable(a.Scheme)
	if id >= benign {
		if reqAuth && !forge {
			return fateReject
		}
		return fatePlan
	}
	authed := id < authCount
	switch a.Move {
	case MoveMACStrip:
		if !reqAuth {
			return fatePlan
		}
		if authed && forge {
			return fatePlan
		}
		return fateReject
	case MoveForgeKoD:
		if reqAuth {
			if !authed {
				return fateReject
			}
			return fateHonest
		}
		return fateKiss
	case MoveCookieReplay:
		if authed {
			if forge {
				return fatePlan
			}
			return fateReject
		}
		if reqAuth {
			return fateReject
		}
		return fateHonest
	default:
		if reqAuth && !authed {
			return fateReject
		}
		return fateHonest
	}
}

// TestFateTableMatchesPerSampleDecision: every pool member's fate, as
// newEngine resolves it, is the decision the per-sample switch makes for
// that member — across every move, scheme, credentialed fraction and
// attacker share, and for the nil model.
func TestFateTableMatchesPerSampleDecision(t *testing.T) {
	models := []*AuthModel{nil}
	for _, move := range gridMoves {
		for _, scheme := range gridSchemes {
			for _, frac := range []float64{0, 1.0 / 3.0, 2.0 / 3.0, 1} {
				models = append(models, &AuthModel{Frac: frac, Scheme: scheme, Move: move})
			}
		}
	}
	seen := map[uint8]bool{}
	for _, auth := range models {
		for _, mal := range gridMalicious {
			cfg := Config{PoolSize: 133, Malicious: mal, Auth: auth}.withDefaults()
			e := newEngine(cfg)
			for id, got := range e.fate {
				want := refDecision(cfg.Auth, id, e.benign)
				if got != want {
					t.Fatalf("auth %+v, malicious %d, id %d: fate %d, want %d", cfg.Auth, mal, id, got, want)
				}
				seen[got] = true
			}
		}
	}
	for _, f := range []uint8{fateHonest, fatePlan, fateReject, fateKiss} {
		if !seen[f] {
			t.Errorf("fate %d never resolved across the grid", f)
		}
	}
}

// TestRoundLoopAllocatesNothing pins the package doc's claim: after
// newEngine, a round allocates nothing, so a one-round run and a
// 2000-round run cost the same number of objects. The two configs cover
// the escalation path and the auth model's panic sweep.
func TestRoundLoopAllocatesNothing(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"poisoned-greedy", Config{Malicious: 89, Strategy: Greedy{}}},
		{"auth-c1c2", Config{Malicious: 89,
			Auth: &AuthModel{Frac: 2.0 / 3.0, Scheme: AuthSHA256, Move: MoveShift}}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Seed, cfg.PoolSize = 1, 133
		cfg.Target, cfg.Horizon, cfg.RunLength = time.Hour, 10*365*24*time.Hour, -1
		allocs := func(rounds int) float64 {
			cfg.MaxRounds = rounds
			return testing.AllocsPerRun(5, func() {
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != rounds {
					t.Fatalf("%s: ran %d of %d rounds", tc.name, res.Rounds, rounds)
				}
			})
		}
		if one, many := allocs(1), allocs(2000); one != many {
			t.Errorf("%s: 1 round allocates %v objects, 2000 rounds %v", tc.name, one, many)
		}
	}
}
