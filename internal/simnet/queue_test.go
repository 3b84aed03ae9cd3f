package simnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// randomDelay draws scheduling offsets across the time scales the
// simulator sees: zero (same-instant seq ordering), packet delays of a
// few milliseconds, second-scale timeouts, hour-scale pool timers, and
// multi-day horizons.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1, 2, 3:
		return time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
	case 4, 5, 6:
		return time.Duration(rng.Int63n(int64(3 * time.Second)))
	case 7, 8:
		return time.Duration(rng.Int63n(int64(3 * time.Hour)))
	default:
		return time.Duration(rng.Int63n(int64(300 * time.Hour)))
	}
}

// oracleEntry is a pending event of the reference scheduler.
type oracleEntry struct {
	when int64
	seq  uint64
	id   int32
}

// oracle is a trivially correct scheduler: a slice kept sorted by
// (when, seq), cancelled by eager removal. It is slow and obviously
// right, which is all a reference needs to be.
type oracle struct {
	now     int64
	seq     uint64
	pending []oracleEntry
	fired   []int32 // ids in dispatch order
}

func (o *oracle) schedule(d time.Duration, id int32) {
	if d < 0 {
		d = 0
	}
	o.seq++
	e := oracleEntry{when: o.now + int64(d), seq: o.seq, id: id}
	i := sort.Search(len(o.pending), func(i int) bool {
		p := o.pending[i]
		return p.when > e.when || (p.when == e.when && p.seq > e.seq)
	})
	o.pending = append(o.pending, oracleEntry{})
	copy(o.pending[i+1:], o.pending[i:])
	o.pending[i] = e
}

// cancel removes id if it is still pending, reporting whether it was.
func (o *oracle) cancel(id int32) bool {
	for i, p := range o.pending {
		if p.id == id {
			o.pending = append(o.pending[:i], o.pending[i+1:]...)
			return true
		}
	}
	return false
}

// advance fires every event due by now+d in order, then sets the clock
// to now+d. It returns how many fired.
func (o *oracle) advance(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	until := o.now + int64(d)
	ran := 0
	for len(o.pending) > 0 && o.pending[0].when <= until {
		o.fired = append(o.fired, o.pending[0].id)
		o.pending = o.pending[1:]
		ran++
	}
	o.now = until
	return ran
}

// TestSchedulerMatchesSortedOracle is the queue's ground truth: a
// million randomized schedule/cancel/advance/peek operations driven
// through a Network and through the sorted-slice oracle in lockstep must
// produce the same cancel outcomes, the same FastForward executed
// counts, the same clocks, the same next-event times, and — above all —
// the identical dispatch order. The (when, seq) total order is the
// contract every golden, conformance, and determinism test in the repo
// stands on.
func TestSchedulerMatchesSortedOracle(t *testing.T) {
	ops := 1_000_000
	if testing.Short() {
		ops = 100_000
	}
	n := New(Config{Seed: 42})
	var ref oracle

	var netLog []int32
	type pending struct {
		timer Timer
		id    int32
	}
	var timers []pending
	rng := rand.New(rand.NewSource(99)) // op script
	var nextID int32

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 45: // schedule
			d := randomDelay(rng)
			id := nextID
			nextID++
			tm := n.After(d, func() { netLog = append(netLog, id) })
			ref.schedule(d, id)
			timers = append(timers, pending{timer: tm, id: id})
		case r < 65: // cancel a random (possibly stale) timer
			if len(timers) == 0 {
				continue
			}
			j := rng.Intn(len(timers))
			p := timers[j]
			timers[j] = timers[len(timers)-1]
			timers = timers[:len(timers)-1]
			got, want := p.timer.Cancel(), ref.cancel(p.id)
			if got != want {
				t.Fatalf("op %d: cancel of timer %d reported %v, oracle %v", op, p.id, got, want)
			}
		case r < 90: // advance
			d := randomDelay(rng) / 3
			got := n.FastForward(d)
			want := ref.advance(d)
			if got != want {
				t.Fatalf("op %d: FastForward(%v) executed %d events, oracle %d", op, d, got, want)
			}
			if n.nowNs != ref.now || !n.Now().Equal(n.start.Add(time.Duration(ref.now))) {
				t.Fatalf("op %d: clock %v, oracle %v", op, time.Duration(n.nowNs), time.Duration(ref.now))
			}
		default: // peek
			got, ok := n.nextEventNs()
			wantOK := len(ref.pending) > 0
			if ok != wantOK || (ok && got != ref.pending[0].when) {
				var want int64
				if wantOK {
					want = ref.pending[0].when
				}
				t.Fatalf("op %d: next event (%v, %v), oracle (%v, %v)",
					op, time.Duration(got), ok, time.Duration(want), wantOK)
			}
		}
	}
	// Drain everything still pending, including multi-day events, and
	// compare the complete dispatch histories.
	for n.Step() {
	}
	for _, p := range ref.pending {
		ref.fired = append(ref.fired, p.id)
	}
	if len(netLog) != len(ref.fired) {
		t.Fatalf("dispatch count: network %d, oracle %d", len(netLog), len(ref.fired))
	}
	for i := range netLog {
		if netLog[i] != ref.fired[i] {
			t.Fatalf("dispatch order diverges at %d: network ran %d, oracle ran %d", i, netLog[i], ref.fired[i])
		}
	}
	if len(netLog) == 0 || len(timers) == len(netLog) {
		t.Fatalf("degenerate run: %d dispatches", len(netLog))
	}
}

// packetPathDigest is the SHA-256 pin of TestPacketPathDigest's
// outcome. It was recorded on the two-engine scheduler the heap
// replaced, where the calendar queue and the binary heap agreed on it.
const packetPathDigest = "cf3dfa86add7a7835f1261317fde3f9f60c8b1ec8d85d14eb919dbdcc31f6ccd"

// TestPacketPathDigest drives seeded traffic — jittered latency, loss,
// mixed fragmented/unfragmented datagrams — through the packet path and
// pins a SHA-256 digest of everything observable: every delivered
// payload with its delivery time, then the delivered and dropped
// counters. Any change to dispatch order, timing or the RNG stream moves
// the digest.
func TestPacketPathDigest(t *testing.T) {
	n := New(Config{
		Seed: 17,
		Loss: func(src, dst IP, rng *rand.Rand) bool { return rng.Intn(8) == 0 },
	})
	a, err := n.AddHost(ipA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHost(ipB)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	if err := b.Listen(123, func(now time.Time, meta Meta, payload []byte) {
		put(uint64(now.UnixNano()))
		put(uint64(len(payload)))
		h.Write(payload)
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		size := 16 + (i%3)*1000 // 2016 fragments; 16/1016 ride the pooled path
		payload := bytes.Repeat([]byte{byte(i)}, size)
		if err := a.SendUDP(5000, Addr{IP: ipB, Port: 123}, payload); err != nil {
			t.Fatal(err)
		}
		n.RunFor(75 * time.Millisecond)
	}
	n.RunFor(time.Second)
	put(n.Delivered())
	put(n.Dropped())
	if n.Delivered() == 0 || n.Dropped() == 0 {
		t.Fatalf("traffic mix degenerate (delivered=%d dropped=%d)", n.Delivered(), n.Dropped())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != packetPathDigest {
		t.Fatalf("packet-path digest %s, want %s (delivered=%d dropped=%d)",
			got, packetPathDigest, n.Delivered(), n.Dropped())
	}
}

// TestMassCancellationSweptOnce pins the tombstone contract: cancelling
// is O(1) and reclaims nothing (no queue surgery), survivors still fire
// in (when, seq) order, and draining the queue reclaims every slab slot
// exactly once — after the drain each slot sits on the free list once,
// with no duplicate handle.
func TestMassCancellationSweptOnce(t *testing.T) {
	const total = 50_000
	n := New(Config{Seed: 7})
	var fired []int
	timers := make([]Timer, 0, total)
	delays := make([]time.Duration, 0, total)
	// Microseconds to hundreds of hours out.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < total; i++ {
		i := i
		d := randomDelay(rng) + time.Microsecond
		delays = append(delays, d)
		timers = append(timers, n.After(d, func() { fired = append(fired, i) }))
	}
	// Cancel all but every 100th timer.
	var survivors []int
	for i, tm := range timers {
		if i%100 == 0 {
			survivors = append(survivors, i)
			continue
		}
		if !tm.Cancel() {
			t.Fatalf("timer %d: cancel failed before dispatch", i)
		}
	}
	if len(n.free) != 0 {
		t.Fatalf("cancellation itself reclaimed %d slots; want lazy tombstones (0)", len(n.free))
	}
	for n.Step() {
	}
	// All timers were scheduled at the same instant, so (when, seq) order
	// is delay order with ties broken by scheduling order.
	sort.SliceStable(survivors, func(a, b int) bool { return delays[survivors[a]] < delays[survivors[b]] })
	if len(fired) != len(survivors) {
		t.Fatalf("fired %d survivors, want %d", len(fired), len(survivors))
	}
	for k := range fired {
		if fired[k] != survivors[k] {
			t.Fatalf("dispatch %d ran timer %d, want %d", k, fired[k], survivors[k])
		}
	}
	if len(n.free) != len(n.events) {
		t.Fatalf("%d slots on the free list after the drain, want all %d", len(n.free), len(n.events))
	}
	seen := make([]bool, len(n.events))
	for _, h := range n.free {
		if seen[h] {
			t.Fatalf("slot %d reclaimed twice", h)
		}
		seen[h] = true
	}
}

// TestEventQueueSteadyStateAllocFree pins schedule+dispatch to zero
// allocations once the slab, free-list, and heap array are warm — the
// property that keeps fleet-scale GC pressure flat.
func TestEventQueueSteadyStateAllocFree(t *testing.T) {
	n := New(Config{Seed: 9})
	fired := 0
	fn := func() { fired++ }
	cycle := func() {
		for i := 0; i < 64; i++ {
			n.After(time.Duration(i)*137*time.Microsecond, fn)
		}
		n.RunFor(50 * time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm slab, free-list, and heap array
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule+dispatch allocates %.1f objects/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired; the cycle under test is vacuous")
	}
}
