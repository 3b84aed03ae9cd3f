package chronos

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/dnsresolver"
	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// refMerge is the pool merge with no memo of absorbed RRsets: every
// accepted response is checked record by record against the whole pool.
type refMerge struct {
	cfg   Config
	pool  []PoolEntry
	stats Stats
}

func (r *refMerge) has(ip simnet.IP) bool {
	for _, e := range r.pool {
		if e.IP == ip {
			return true
		}
	}
	return false
}

func (r *refMerge) absorb(idx int, res dnsresolver.Result) {
	if res.Err != nil {
		return
	}
	p := r.cfg.Policy
	count := 0
	for _, rr := range res.RRs {
		if rr.Type != dnswire.TypeA {
			continue
		}
		count++
		if p.MaxTTL > 0 && time.Duration(rr.TTL)*time.Second > p.MaxTTL {
			r.stats.PolicyDiscards++
			return
		}
	}
	if p.MaxAddrsPerResponse > 0 && count > p.MaxAddrsPerResponse {
		r.stats.PolicyDiscards++
		return
	}
	r.stats.PoolResponses++
	for _, rr := range res.RRs {
		if rr.Type != dnswire.TypeA || r.has(simnet.IP(rr.A)) {
			continue
		}
		if r.cfg.PoolTarget > 0 && len(r.pool) >= r.cfg.PoolTarget {
			return
		}
		r.pool = append(r.pool, PoolEntry{IP: simnet.IP(rr.A), QueryIdx: idx})
	}
}

// cachedSet is one RRset as a resolver cache would hold it: its records
// never change after storage, only the TTLs it is served with age.
type cachedSet struct {
	id  uint64
	rrs []dnswire.RR
	age uint32
}

// served returns the set's records with TTLs aged the way Cache.Get
// serves them.
func (s *cachedSet) served() []dnswire.RR {
	out := make([]dnswire.RR, len(s.rrs))
	copy(out, s.rrs)
	for i := range out {
		if out[i].TTL > s.age {
			out[i].TTL -= s.age
		} else {
			out[i].TTL = 0
		}
	}
	return out
}

// randomRRs draws a pool response over a small address universe, so
// responses overlap each other and the pool: records repeat within one
// response, non-A records are mixed in, and TTLs straddle a 24 h policy
// cap from both sides.
func randomRRs(rng *rand.Rand) []dnswire.RR {
	n := 1 + rng.Intn(12)
	if rng.Intn(5) == 0 {
		n = 89
	}
	ttls := []uint32{150, 86400 - 600, 86400 + 600, 86400 + 3*3600, 7 * 86400}
	ttl := ttls[rng.Intn(len(ttls))]
	rrs := make([]dnswire.RR, n)
	for i := range rrs {
		ip := [4]byte{66, 0, 0, byte(1 + rng.Intn(120))}
		rrs[i] = dnswire.ARecord("pool.ntp.org", ttl, ip)
		switch rng.Intn(12) {
		case 0:
			rrs[i].Type = dnswire.TypeNS // A bytes set but not an address record
		case 1:
			rrs[i].TTL = ttls[rng.Intn(len(ttls))]
		}
	}
	return rrs
}

// TestAbsorbMatchesReferenceMerge feeds random sequences of resolver
// results — repeated and new SetIDs, SetID 0, failed lookups — through
// the client's absorb path under random PoolTarget caps and §V policies,
// and checks the pool order, the sorted IP index and the stats against
// a merge that never skips a response.
func TestAbsorbMatchesReferenceMerge(t *testing.T) {
	policies := []PoolPolicy{
		{},
		{MaxTTL: 24 * time.Hour},
		{MaxAddrsPerResponse: 4},
		{MaxTTL: 24 * time.Hour, MaxAddrsPerResponse: 12},
	}
	skipped := 0
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cfg := Config{Policy: policies[rng.Intn(len(policies))]}
		if rng.Intn(3) == 0 {
			cfg.PoolTarget = 1 + rng.Intn(60)
		}
		n := simnet.New(simnet.Config{Seed: int64(trial)})
		host, _ := n.AddHost(clientIP)
		c := New(host, &clock.Clock{}, nil, cfg)
		ref := &refMerge{cfg: c.Config()}

		var sets []*cachedSet
		nextID := uint64(1000)
		for step := 1; step <= 40; step++ {
			n.RunFor(time.Duration(rng.Intn(7200)) * time.Second)
			var res dnsresolver.Result
			switch r := rng.Intn(20); {
			case r == 0:
				res = dnsresolver.Result{Err: errors.New("lookup failed")}
			case r < 4:
				res = dnsresolver.Result{RRs: randomRRs(rng)}
			case r < 9 || len(sets) == 0:
				nextID++
				s := &cachedSet{id: nextID, rrs: randomRRs(rng)}
				sets = append(sets, s)
				res = dnsresolver.Result{RRs: s.served(), SetID: s.id}
			default:
				// Mostly the newest set, as a live cache entry would be.
				s := sets[len(sets)-1]
				if rng.Intn(4) == 0 {
					s = sets[rng.Intn(len(sets))]
				}
				s.age += uint32(rng.Intn(4 * 3600))
				res = dnsresolver.Result{RRs: s.served(), SetID: s.id}
			}
			if res.SetID != 0 && res.SetID == c.lastSet {
				skipped++
			}
			c.absorbPoolResponse(step, res)
			ref.absorb(step, res)

			if !slices.Equal(c.pool, ref.pool) {
				t.Fatalf("trial %d step %d (cfg %+v): pool\n got %v\nwant %v", trial, step, cfg, c.pool, ref.pool)
			}
			want := make([]uint32, len(ref.pool))
			for i, e := range ref.pool {
				want[i] = ipKey(e.IP)
			}
			slices.Sort(want)
			if !slices.Equal(c.poolIPs, want) {
				t.Fatalf("trial %d step %d: IP index\n got %v\nwant %v", trial, step, c.poolIPs, want)
			}
			if c.stats != ref.stats {
				t.Fatalf("trial %d step %d: stats\n got %+v\nwant %+v", trial, step, c.stats, ref.stats)
			}
		}
	}
	// The sequences must reach the skip, or the test compares nothing new.
	if skipped < 1000 {
		t.Fatalf("only %d repeat-set absorbs across all trials", skipped)
	}
}
