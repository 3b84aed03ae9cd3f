package dnsresolver

import (
	"sort"
	"sync/atomic"
	"time"

	"chronosntp/internal/dnswire"
)

// cacheKey identifies an RRset.
type cacheKey struct {
	name  string
	qtype dnswire.Type
}

type cacheEntry struct {
	rrs      []dnswire.RR // TTLs as received
	aged     []dnswire.RR // per-entry clone of rrs holding the TTL-decremented view
	agedBy   uint32       // seconds the aged view was aged by; 0 = not yet built
	id       uint64       // RRset id handed out as Result.SetID on cache hits
	storedAt time.Time
	expiry   time.Time
}

// setIDs numbers cached RRsets. It is shared by every Cache in the
// process, so an id names one stored record set and is never reused for
// different records, even across resolvers; 0 is never issued.
var setIDs atomic.Uint64

// Cache is a TTL-respecting DNS cache. It is the attack target: one
// poisoned RRset with a long TTL persists across all of Chronos' hourly
// pool queries.
type Cache struct {
	entries  map[cacheKey]*cacheEntry
	negative map[cacheKey]time.Time // NXDOMAIN/NODATA until expiry
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		entries:  make(map[cacheKey]*cacheEntry),
		negative: make(map[cacheKey]time.Time),
	}
}

// Put stores rrs as the RRset for (name, qtype). TTLs are taken from the
// records; the entry expires when the smallest TTL does.
func (c *Cache) Put(now time.Time, name string, qtype dnswire.Type, rrs []dnswire.RR) {
	if len(rrs) == 0 {
		return
	}
	minTTL := rrs[0].TTL
	for _, rr := range rrs[1:] {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	cp := make([]dnswire.RR, len(rrs))
	copy(cp, rrs)
	k := cacheKey{name: dnswire.NormalizeName(name), qtype: qtype}
	c.entries[k] = &cacheEntry{
		rrs:      cp,
		id:       setIDs.Add(1),
		storedAt: now,
		expiry:   now.Add(time.Duration(minTTL) * time.Second),
	}
	delete(c.negative, k)
}

// PutNegative records that (name, qtype) does not exist, for ttl.
func (c *Cache) PutNegative(now time.Time, name string, qtype dnswire.Type, ttl time.Duration) {
	k := cacheKey{name: dnswire.NormalizeName(name), qtype: qtype}
	c.negative[k] = now.Add(ttl)
}

// Get returns the unexpired RRset for (name, qtype) with TTLs decremented
// by the time spent in cache.
//
// The returned slice is borrowed from the entry: callers must not modify
// it, and must consume it (or copy records out) before the entry is next
// written or aged again, i.e. within the same simulation event. When no
// whole second has elapsed since storage the stored records are returned
// directly; otherwise the TTL-decremented view lives in a per-entry
// clone, so two simultaneously live Gets of *different* entries (the
// referral walk holds an NS set while fetching glue A sets) never clobber
// each other.
func (c *Cache) Get(now time.Time, name string, qtype dnswire.Type) ([]dnswire.RR, bool) {
	rrs, _, ok := c.get(now, cacheKey{name: dnswire.NormalizeName(name), qtype: qtype})
	return rrs, ok
}

// get is Get for an already-normalised key, also returning the entry's
// RRset id.
func (c *Cache) get(now time.Time, k cacheKey) ([]dnswire.RR, uint64, bool) {
	e, ok := c.entries[k]
	if !ok {
		return nil, 0, false
	}
	if !now.Before(e.expiry) {
		delete(c.entries, k)
		return nil, 0, false
	}
	aged := uint32(now.Sub(e.storedAt) / time.Second)
	if aged == 0 {
		return e.rrs, e.id, true
	}
	if e.agedBy == aged {
		// The view is already decremented by this many seconds — the
		// common case at fleet scale, where bursts of clients hit the
		// same entry within one virtual second.
		return e.aged, e.id, true
	}
	if e.aged == nil {
		// First aged read: clone the records once. The view differs from
		// rrs only in TTL, so every later re-age rewrites TTLs alone
		// instead of re-copying the wide, pointer-bearing records.
		e.aged = make([]dnswire.RR, len(e.rrs))
		copy(e.aged, e.rrs)
	}
	for i := range e.aged {
		if ttl := e.rrs[i].TTL; ttl > aged {
			e.aged[i].TTL = ttl - aged
		} else {
			e.aged[i].TTL = 0
		}
	}
	e.agedBy = aged
	return e.aged, e.id, true
}

// GetNegative reports whether (name, qtype) is negatively cached.
func (c *Cache) GetNegative(now time.Time, name string, qtype dnswire.Type) bool {
	k := cacheKey{name: dnswire.NormalizeName(name), qtype: qtype}
	exp, ok := c.negative[k]
	if !ok {
		return false
	}
	if !now.Before(exp) {
		delete(c.negative, k)
		return false
	}
	return true
}

// Flush removes the entry for (name, qtype), reporting whether it existed.
func (c *Cache) Flush(name string, qtype dnswire.Type) bool {
	k := cacheKey{name: dnswire.NormalizeName(name), qtype: qtype}
	_, ok := c.entries[k]
	delete(c.entries, k)
	delete(c.negative, k)
	return ok
}

// Len returns the number of positive entries (expired ones included until
// touched or purged).
func (c *Cache) Len() int { return len(c.entries) }

// Purge drops all expired entries.
func (c *Cache) Purge(now time.Time) {
	for k, e := range c.entries {
		if !now.Before(e.expiry) {
			delete(c.entries, k)
		}
	}
	for k, exp := range c.negative {
		if !now.Before(exp) {
			delete(c.negative, k)
		}
	}
}

// Dump returns a deterministic snapshot of all unexpired entries, for
// experiment reporting.
func (c *Cache) Dump(now time.Time) []dnswire.RR {
	keys := make([]cacheKey, 0, len(c.entries))
	for k, e := range c.entries {
		if now.Before(e.expiry) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].qtype < keys[j].qtype
	})
	var out []dnswire.RR
	for _, k := range keys {
		if rrs, _, ok := c.get(now, k); ok {
			out = append(out, rrs...)
		}
	}
	return out
}
