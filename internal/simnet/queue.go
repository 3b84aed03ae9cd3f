package simnet

// This file is the event engine: a slab of events addressed by int32
// handles, ordered by a binary min-heap of (when, seq, handle) keys.
//
// Why a slab: the fleet engine keeps hundreds of thousands of events in
// flight across 100 shard networks. As individual heap objects (even
// free-listed ones) every live event is a pointer-dense allocation the
// garbage collector must find and scan on every cycle — ~25% of fleet
// CPU went to GC scanning. In the slab, all events of a network live in
// one growable []event; the collector sees a single object and the
// free-list is a []int32 of slot indices. Handles are generation-counted,
// so a stale Timer can never cancel a slot's next occupant.
//
// Why a plain binary heap: its entries carry the sort key inline, so a
// compare never dereferences the slab, and the heap array is
// pointer-free. A two-level calendar queue (bucket wheels, occupancy
// bitmaps, a peek cache) was at most a few percent faster end to end on
// the fleet benchmark, for about 400 more lines; see ARCHITECTURE.md.
//
// Cancellation is a lazy tombstone: Timer.Cancel flips the event's
// cancelled flag and nothing else. heapPeek reclaims a dead event's slot
// when it surfaces at the top of the heap, so every tombstone is visited
// exactly once and cancelling never re-heapifies.
//
// Dispatch follows the (when, seq) total order — earlier virtual time
// first, and scheduling order among events at the same instant. Every
// golden, conformance and determinism test in the repo stands on it.

// qitem is a queue entry: the (when, seq) sort key stored inline — so
// ordering never dereferences the slab — plus the event's slab handle.
type qitem struct {
	when int64
	seq  uint64
	h    int32
}

// before reports whether a precedes b in dispatch order.
func (a qitem) before(b qitem) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// qheap is a binary min-heap of queue entries in (when, seq) order.
type qheap struct {
	items []qitem
}

func (q *qheap) push(it qitem) {
	q.items = append(q.items, it)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.items[i].before(q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *qheap) pop() qitem {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.items[l].before(q.items[small]) {
			small = l
		}
		if r < last && q.items[r].before(q.items[small]) {
			small = r
		}
		if small == i {
			break
		}
		q.items[i], q.items[small] = q.items[small], q.items[i]
		i = small
	}
	return top
}

// heapPeek reclaims cancelled events at the top of the heap and returns
// the earliest live entry. It never reorders live events, so peeking has
// no effect on dispatch order.
func (n *Network) heapPeek() (qitem, bool) {
	q := &n.queue
	for len(q.items) > 0 {
		top := q.items[0]
		if !n.events[top.h].cancelled {
			return top, true
		}
		q.pop()
		n.recycleEvent(top.h)
	}
	return qitem{}, false
}

// heapPop removes and returns the earliest live event's handle, or -1.
func (n *Network) heapPop() int32 {
	if top, ok := n.heapPeek(); ok {
		n.queue.pop()
		return top.h
	}
	return -1
}

// pushEvent enqueues slab slot h at absolute virtual time whenNs.
func (n *Network) pushEvent(h int32, whenNs int64) {
	n.seq++
	n.events[h].when = whenNs
	n.queue.push(qitem{when: whenNs, seq: n.seq, h: h})
}

// allocEvent pops a free slab slot or grows the slab.
func (n *Network) allocEvent() int32 {
	if k := len(n.free) - 1; k >= 0 {
		h := n.free[k]
		n.free = n.free[:k]
		return h
	}
	n.events = append(n.events, event{})
	return int32(len(n.events) - 1)
}

// recycleEvent returns a slot to the free-list, releasing any pooled
// payload buffer it carried and bumping the generation so outstanding
// Timer handles go inert.
func (n *Network) recycleEvent(h int32) {
	ev := &n.events[h]
	if ev.buf != nil {
		n.releaseBuf(ev.buf)
		ev.buf = nil
	}
	ev.fn = nil
	ev.pkt = Packet{}
	ev.kind = evFn
	ev.cancelled = false
	ev.gen++
	n.free = append(n.free, h)
}
