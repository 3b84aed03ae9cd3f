package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// This file reads the two profiles the traced run takes, with the
// standard library only: the gzipped protobuf CPU profile, folded into
// per-module CPU shares, and the text mutex profile, summed over the
// stacks of one package.

// modules lists every module a CPU sample can be attributed to. The
// repository's packages are named after their directory under
// internal/; the rest are standard-library and runtime groups.
var modules = []string{
	"simnet", "dnsresolver", "dnswire", "dnsserver", "ipfrag", "attack",
	"chronos", "shiftsim", "ntpclient", "ntpwire", "ntpserver", "ntpauth",
	"wirenet", "fleet", "runner", "core", "clock",
	"crypto", "syscall", "runtime_gc", "runtime_malloc", "runtime_sched", "runtime_other",
	"perfbench", "other",
}

// foldCPU attributes every sample of a gzipped CPU profile to a module
// and returns each module's share of the sampled CPU time. See moduleOf.
func foldCPU(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(modules))
	for _, m := range modules {
		shares[m] = 0
	}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		frames := p.frames(s.locs)
		if len(frames) == 0 {
			continue
		}
		shares[moduleOf(frames)] += v
		total += v
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= total
		}
	}
	return shares, nil
}

// moduleOf names the module of a stack, given leaf first. The leaf
// frame's package decides, with two refinements. A runtime leaf counts
// as collection, allocation or scheduling by what the stack was doing.
// Any other leaf outside the repository, crypto and the socket layer
// (map hashing, sorting, math/rand, time arithmetic) counts towards the
// nearest repository module that called it: that is work the module
// asked for, not a layer of its own.
func moduleOf(frames []string) string {
	if m := repoModule(frames[0]); m != "" {
		return m
	}
	pkg := funcPackage(frames[0])
	runtimeLeaf := pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime")
	switch {
	case pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall" ||
		pkg == "syscall" || pkg == "internal/poll" || pkg == "net" || pkg == "internal/syscall/unix":
		return "syscall"
	case strings.HasPrefix(pkg, "crypto/") || strings.Contains(pkg, "golang.org/x/crypto"):
		return "crypto"
	case runtimeLeaf:
		if g := runtimeGroup(frames); g != "" {
			return g
		}
	}
	for _, f := range frames[1:] {
		if m := repoModule(f); m != "" {
			return m
		}
	}
	if runtimeLeaf {
		return "runtime_other"
	}
	return "other"
}

// repoModule returns the module of a repository function, "" for any
// other.
func repoModule(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "chronosntp/internal/"); ok {
		mod := rest[:strings.IndexAny(rest+".", "./")]
		for _, m := range modules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	return ""
}

// runtimeGroup classifies a stack whose leaf is in the runtime: "" when
// it is none of collection, allocation and scheduling.
func runtimeGroup(frames []string) string {
	has := func(names ...string) bool {
		for _, f := range frames {
			for _, n := range names {
				if strings.HasPrefix(f, n) {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has("runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.gcDrain", "runtime.sweepone", "runtime.gcStart", "runtime.GC", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.(*sweepLocked).sweep", "runtime.(*mspan).sweep"):
		return "runtime_gc"
	case has("runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.makemap",
		"runtime.newarray", "runtime.rawstring", "runtime.rawbyteslice", "runtime.(*mcache)", "runtime.(*mheap).alloc"):
		return "runtime_malloc"
	case has("runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.gopark",
		"runtime.goready", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.netpoll", "runtime.futex",
		"runtime.notesleep", "runtime.notewakeup", "runtime.goexit0", "runtime.gosched", "runtime.Gosched",
		"runtime.usleep", "runtime.osyield", "runtime.sysmon", "runtime.ready", "runtime.newproc"):
		return "runtime_sched"
	}
	return ""
}

// funcPackage returns the import path of a qualified function name such
// as "crypto/sha256.(*digest).Write".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof protobuf the fold needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// frames returns the function names of a stack, leaf first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			if si, ok := p.functions[fid]; ok && si >= 0 && si < int64(len(p.strings)) {
				out = append(out, p.strings[si])
			}
		}
	}
	return out
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

var errProto = errors.New("malformed protobuf")

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = walk(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case fProfileSample:
			var s sample
			err := walk(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case fSampleLocation:
					return appendPacked(&s.locs, wire, v, b)
				case fSampleValue:
					var u []uint64
					if err := appendPacked(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(b, func(field, wire int, v uint64, b []byte) error {
						if field == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walk(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// walk calls f for every field of a protobuf message: v holds varint
// and fixed-width values, b the bytes of length-delimited ones.
func walk(msg []byte, f func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[4:]
		default:
			return errProto
		}
		if err := f(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// mutexWait sums the contention delay of a text (debug=1) mutex profile
// over the records whose stack has a frame in the given package prefix.
func mutexWait(text []byte, pkgPrefix string) (time.Duration, error) {
	var cyclesPerSec float64
	var total float64
	var cur float64
	match := false
	flush := func() {
		if match {
			total += cur
		}
		cur, match = 0, false
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
			if err != nil {
				return 0, err
			}
			cyclesPerSec = v
		case strings.HasPrefix(line, "#"):
			if strings.Contains(line, pkgPrefix) {
				match = true
			}
		case line != "" && line[0] >= '0' && line[0] <= '9':
			flush()
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("record %q: %w", line, err)
			}
			cur = v
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if cyclesPerSec <= 0 {
		if total == 0 {
			return 0, nil
		}
		return 0, errors.New("no cycles/second header")
	}
	return time.Duration(total / cyclesPerSec * float64(time.Second)), nil
}
