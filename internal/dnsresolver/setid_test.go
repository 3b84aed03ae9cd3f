package dnsresolver

import (
	"reflect"
	"testing"
	"time"

	"chronosntp/internal/dnswire"
)

var setIDEpoch = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// cachedID returns the RRset id a hit on (name, qtype) would carry.
func cachedID(t *testing.T, c *Cache, now time.Time, name string, qtype dnswire.Type) uint64 {
	t.Helper()
	_, id, ok := c.get(now, cacheKey{name: dnswire.NormalizeName(name), qtype: qtype})
	if !ok {
		t.Fatalf("%s/%v not cached at %v", name, qtype, now.Sub(setIDEpoch))
	}
	return id
}

func TestCacheSetIDStableAcrossAgedGets(t *testing.T) {
	c := NewCache()
	c.Put(setIDEpoch, "pool.ntp.org", dnswire.TypeA, []dnswire.RR{
		dnswire.ARecord("pool.ntp.org", 600, [4]byte{1, 2, 3, 4}),
		dnswire.ARecord("pool.ntp.org", 900, [4]byte{1, 2, 3, 5}),
	})
	id := cachedID(t, c, setIDEpoch, "pool.ntp.org", dnswire.TypeA)
	if id == 0 {
		t.Fatal("cache entry carries SetID 0")
	}
	for _, sec := range []int{0, 1, 1, 7, 59, 3, 599} {
		now := setIDEpoch.Add(time.Duration(sec) * time.Second)
		if got := cachedID(t, c, now, "POOL.ntp.org.", dnswire.TypeA); got != id {
			t.Fatalf("aged %ds: SetID %d, want %d", sec, got, id)
		}
	}
}

func TestCacheSetIDNewAfterEveryPut(t *testing.T) {
	c := NewCache()
	rrs := []dnswire.RR{dnswire.ARecord("a.example", 100, [4]byte{1, 2, 3, 4})}
	seen := map[uint64]bool{}
	fresh := func(now time.Time) {
		t.Helper()
		id := cachedID(t, c, now, "a.example", dnswire.TypeA)
		if id == 0 || seen[id] {
			t.Fatalf("Put issued SetID %d (seen before: %v)", id, seen[id])
		}
		seen[id] = true
	}
	c.Put(setIDEpoch, "a.example", dnswire.TypeA, rrs)
	fresh(setIDEpoch)
	// Overwrite while live, with identical records.
	c.Put(setIDEpoch.Add(10*time.Second), "a.example", dnswire.TypeA, rrs)
	fresh(setIDEpoch.Add(10 * time.Second))
	// Let it expire, observe the miss, then store it again.
	later := setIDEpoch.Add(10*time.Minute + time.Second)
	if _, ok := c.Get(later, "a.example", dnswire.TypeA); ok {
		t.Fatal("expired entry served")
	}
	c.Put(later, "a.example", dnswire.TypeA, rrs)
	fresh(later)
	// Flush and re-Put.
	c.Flush("a.example", dnswire.TypeA)
	c.Put(later, "a.example", dnswire.TypeA, rrs)
	fresh(later)
}

func TestCacheSetIDsUniqueAcrossCaches(t *testing.T) {
	rrs := []dnswire.RR{dnswire.ARecord("pool.ntp.org", 100, [4]byte{1, 2, 3, 4})}
	caches := []*Cache{NewCache(), NewCache(), NewCache()}
	seen := map[uint64]bool{}
	for _, c := range caches {
		c.Put(setIDEpoch, "pool.ntp.org", dnswire.TypeA, rrs)
		id := cachedID(t, c, setIDEpoch, "pool.ntp.org", dnswire.TypeA)
		if seen[id] {
			t.Fatalf("two caches share SetID %d", id)
		}
		seen[id] = true
	}
}

// copyThenPatch is the aged view as Cache.Get used to build it: a full
// copy of the stored records with every TTL decremented in place.
func copyThenPatch(rrs []dnswire.RR, aged uint32) []dnswire.RR {
	out := make([]dnswire.RR, len(rrs))
	copy(out, rrs)
	for i := range out {
		if out[i].TTL > aged {
			out[i].TTL -= aged
		} else {
			out[i].TTL = 0
		}
	}
	return out
}

func TestCacheTTLOnlyReagingMatchesCopy(t *testing.T) {
	soa := &dnswire.SOAData{MName: "ns1.ntp.org", RName: "hostmaster.ntp.org", Serial: 7}
	stored := []dnswire.RR{
		dnswire.ARecord("mixed.example", 5, [4]byte{10, 0, 0, 1}),
		dnswire.ARecord("mixed.example", 3600, [4]byte{10, 0, 0, 2}),
		{Name: "mixed.example", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 20, Target: "ns1.mixed.example"},
		{Name: "mixed.example", Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 1, TXT: []string{"a", "b"}},
		{Name: "mixed.example", Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 90, SOA: soa},
		{Name: "mixed.example", Type: dnswire.Type(99), Class: dnswire.ClassIN, TTL: 1 << 31, Raw: []byte{1, 2, 3}},
	}
	c := NewCache()
	c.Put(setIDEpoch, "mixed.example", dnswire.TypeA, stored)
	// The entry expires with its smallest TTL (1 s), so no TTL ever
	// reaches the clamp through Put alone. Stretch the lifetime so the
	// walk below clamps records to 0 while others stay positive.
	c.entries[cacheKey{name: "mixed.example", qtype: dnswire.TypeA}].expiry = setIDEpoch.Add(1 << 32 * time.Second)

	for _, sec := range []uint32{0, 1, 1, 2, 0, 4, 5, 6, 19, 20, 21, 3, 89, 90, 91, 3599, 3600, 3601, 1<<31 - 1, 1 << 31, 1<<31 + 1, 2} {
		got, ok := c.Get(setIDEpoch.Add(time.Duration(sec)*time.Second), "mixed.example", dnswire.TypeA)
		if !ok {
			t.Fatalf("aged %ds: entry missing", sec)
		}
		if want := copyThenPatch(stored, sec); !reflect.DeepEqual(got, want) {
			t.Fatalf("aged %ds:\n got %+v\nwant %+v", sec, got, want)
		}
		for i := range got {
			if got[i].SOA != stored[i].SOA {
				t.Fatalf("aged %ds: record %d SOA pointer not shared with the stored record", sec, i)
			}
		}
	}
}

func TestResultSetIDOnlyOnResolverCacheHits(t *testing.T) {
	tp := newTopo(t, Config{})
	direct := func() Result {
		t.Helper()
		var got *Result
		tp.resolver.Lookup("pool.ntp.org", dnswire.TypeA, func(res Result) { got = &res })
		tp.net.RunFor(10 * time.Second)
		if got == nil || got.Err != nil {
			t.Fatalf("direct lookup: %+v", got)
		}
		return *got
	}

	if res := direct(); res.From == "cache" || res.SetID != 0 {
		t.Fatalf("fresh upstream answer: From %q SetID %d, want upstream with 0", res.From, res.SetID)
	}
	hit := direct()
	if hit.From != "cache" || hit.SetID == 0 {
		t.Fatalf("cache hit: From %q SetID %d, want cache with non-zero id", hit.From, hit.SetID)
	}
	if again := direct(); again.SetID != hit.SetID {
		t.Fatalf("second hit on the same entry: SetID %d, want %d", again.SetID, hit.SetID)
	}
	// The stub path sees the same cached set over the wire, but a wire
	// answer cannot vouch for the resolver's entry.
	if res := tp.lookup(t, "pool.ntp.org", dnswire.TypeA); res.Err != nil || res.SetID != 0 {
		t.Fatalf("stub result: err %v SetID %d, want 0", res.Err, res.SetID)
	}
}
