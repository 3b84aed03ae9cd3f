package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"
)

// recorder keeps the spans of a traced phase in memory; they are
// written out when the run ends. Spans of one request or round share an
// id: the root span names the operation, its children the layer calls
// made for it. A nil recorder records nothing.
type recorder struct {
	epoch  time.Time
	names  []string
	kinds  map[string]uint8
	spans  []span
	nextID uint64
}

type span struct {
	id         uint64
	kind       uint8
	start, end int64 // ns since the recorder's epoch
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), kinds: map[string]uint8{}, spans: make([]span, 0, 1<<16)}
}

// kind interns a span name.
func (r *recorder) kind(name string) uint8 {
	if r == nil {
		return 0
	}
	k, ok := r.kinds[name]
	if !ok {
		k = uint8(len(r.names))
		r.names = append(r.names, name)
		r.kinds[name] = k
	}
	return k
}

func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.nextID++
	return r.nextID
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// add records a span that began at start (from now) and ends now.
func (r *recorder) add(id uint64, kind uint8, start int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{id: id, kind: kind, start: start, end: r.now()})
}

// durations returns the lengths of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	k, ok := r.kinds[name]
	if !ok {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.kind == k {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, for every root span, its length minus the length
// of the child spans that share its id (children do not overlap).
func (r *recorder) selfTimes(root, child string) []time.Duration {
	rk, ok := r.kinds[root]
	if !ok {
		return nil
	}
	ck, hasChild := r.kinds[child]
	childSum := map[uint64]int64{}
	if hasChild {
		for _, s := range r.spans {
			if s.kind == ck {
				childSum[s.id] += s.end - s.start
			}
		}
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.kind == rk {
			out = append(out, time.Duration(s.end-s.start-childSum[s.id]))
		}
	}
	return out
}

func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return durUS(sum) / float64(len(ds))
}

// maxExport caps the spans written out, so that a traced wire-serve run
// (millions of spans) leaves a file of a few megabytes. The metrics use
// every span.
const maxExport = 1 << 17

// tsv renders the first maxExport spans, one a line: id, name, start and
// end in ns.
func (r *recorder) tsv() []byte {
	var b strings.Builder
	spans := r.spans
	if len(spans) > maxExport {
		spans = spans[:maxExport]
	}
	fmt.Fprintf(&b, "# %d of %d spans\nid\tname\tstart_ns\tend_ns\n", len(spans), len(r.spans))
	for _, s := range spans {
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\n", s.id, r.names[s.kind], s.start, s.end)
	}
	return []byte(b.String())
}

// do runs f under a pprof label naming the enclosing span when the
// recorder is on.
func (r *recorder) do(label string, f func()) {
	if r == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("span", label), func(context.Context) { f() })
}
