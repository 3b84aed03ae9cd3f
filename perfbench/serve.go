package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/wirenet"
)

// wire-serve drives one authenticated wirenet.Server over loopback
// with a closed loop of serveWindow requests in flight from one client
// socket. A closed loop, because an open-loop pacer on two cores loses
// a fraction of a percent of replies, which would show as failures that
// are the pacer's and not the server's.
//
// The traffic mix is chosen for coverage, not taken from a measurement
// of real traffic: bare requests dominate, MAC and NTS requests are a
// tenth each so that a batch holds about 400 of each, and one hostile
// datagram per 128 requests sends each of the three hostile kinds about
// ten times per batch. The traced run measures each kind's CPU cost
// alone and its share of the mix's CPU, so a serve figure can be
// weighed for another mix.
const (
	serveWindow   = 64  // requests in flight; a power of two that fits the slot bits
	serveSlotMask = 63  // low timestamp bits that name the slot
	serveMACPct   = 10  // percent of requests with a SHA-256 MAC
	serveNTSPct   = 10  // percent of requests with NTS
	hostileEvery  = 128 // one hostile datagram per this many requests
	serveTimeout  = time.Second
	// serveCostRequests is how many requests of one kind alone the
	// traced run sends to measure that kind's CPU cost.
	serveCostRequests = 32_768
)

// Request kinds: the three packet sizes of the serve path.
const (
	kindBare = iota // 48-byte request
	kindMAC         // SHA-256 MAC trailer
	kindNTS         // NTS unique identifier, cookie and authenticator
	numKinds
)

var kindNames = [numKinds]string{"bare", "mac", "nts"}

// serveOutput is what a batch must reproduce exactly.
type serveOutput struct {
	Sent            [numKinds]int
	Hostile         int
	Served, Dropped uint64 // server counter growth over the batch
}

type serveBench struct {
	seed     int64
	requests int

	srv  *wirenet.Server
	conn *net.UDPConn
	mac  *ntpauth.ClientAuth
	nts  [serveWindow]*ntpauth.ClientAuth

	// Per-slot state of the request in flight.
	pending [serveWindow]bool
	ts      [serveWindow]ntpwire.Timestamp
	kind    [serveWindow]int
	sentAt  [serveWindow]time.Time
	spanID  [serveWindow]uint64
	spanAt  [serveWindow]int64
	free    []int
	seq     uint64

	sendBuf []byte
	recvBuf [2048]byte
	resp    ntpwire.Packet
}

func newServeBench(e env) *serveBench {
	return &serveBench{seed: e.seed, requests: e.sc.serveRequests}
}

func (b *serveBench) keepsState() bool { return true }

func (b *serveBench) perBatchSetup() bool { return false }

// setup starts the server with a SHA-256 key table and an NTS server
// (authentication not required), establishes one NTS session per
// in-flight slot and warms the path up.
func (b *serveBench) setup(*recorder) error {
	rng := rand.New(rand.NewSource(b.seed))
	secret := make([]byte, 32)
	master := make([]byte, 32)
	rng.Read(secret)
	rng.Read(master)
	key := ntpauth.Key{ID: 1, Algo: ntpauth.AlgoSHA256, Secret: secret}
	tbl, err := ntpauth.NewKeyTable(key)
	if err != nil {
		return err
	}
	ntsSrv, err := ntpauth.NewNTSServer(master)
	if err != nil {
		return err
	}
	b.mac = &ntpauth.ClientAuth{Key: key, Require: true}
	for i := range b.nts {
		sess, err := ntpauth.Establish(ntsSrv, b.seed<<8|int64(i), 8)
		if err != nil {
			return err
		}
		b.nts[i] = &ntpauth.ClientAuth{NTS: sess, Require: true}
	}
	b.srv, err = wirenet.Serve(wirenet.ServerConfig{
		Responder: ntpserver.NewResponder(ntpserver.Config{Auth: &ntpauth.ServerAuth{Keys: tbl, NTS: ntsSrv}}),
	})
	if err != nil {
		return err
	}
	b.conn, err = net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(b.srv.AddrPort()))
	if err != nil {
		return err
	}
	b.free = b.free[:0]
	for i := serveWindow - 1; i >= 0; i-- {
		b.free = append(b.free, i)
		b.pending[i] = false
	}
	var warm batch
	var o serveOutput
	b.loop(4*serveWindow, rand.New(rand.NewSource(b.seed)), nil, &warm, &o, mixed)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	// The first batch's counter baselines must not catch the warm-up's
	// last datagrams still in the server.
	b.settle(uint64(4*serveWindow), uint64(o.Hostile))
	return nil
}

// settle waits, up to serveTimeout, until the server has counted at
// least the given replies and drops. The server counts a reply after
// writing it and handles the last hostile datagram after the client has
// moved on, so the counters can trail the client by a moment.
func (b *serveBench) settle(served, dropped uint64) {
	for deadline := time.Now().Add(serveTimeout); time.Now().Before(deadline); runtime.Gosched() {
		if b.srv.Served() >= served && b.srv.Dropped() >= dropped {
			return
		}
	}
}

func (b *serveBench) teardown() {
	if b.conn != nil {
		b.conn.Close()
		b.conn = nil
	}
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
}

func (b *serveBench) batch(rec *recorder) batch {
	var out batch
	var o serveOutput
	served0, dropped0 := b.srv.Served(), b.srv.Dropped()
	b.loop(b.requests, rand.New(rand.NewSource(b.seed)), rec, &out, &o, mixed)
	b.settle(served0+uint64(b.requests), dropped0+uint64(o.Hostile))
	o.Served, o.Dropped = b.srv.Served()-served0, b.srv.Dropped()-dropped0
	out.attempted += int64(o.Hostile)
	if o.Dropped != uint64(o.Hostile) {
		out.checks = append(out.checks, fmt.Sprintf("server dropped %d datagrams, %d hostile sent", o.Dropped, o.Hostile))
		out.failed += int64(o.Hostile)
	}
	if o.Served != uint64(b.requests) {
		out.checks = append(out.checks, fmt.Sprintf("server answered %d of %d requests", o.Served, b.requests))
	}
	out.out = o
	return out
}

// mixed asks loop for the workload's mix of kinds and hostile
// datagrams.
const mixed = -1

// loop sends n valid requests, keeping serveWindow in flight, and
// checks every reply. The requests are of kind only, with no hostile
// datagrams, unless only is mixed.
func (b *serveBench) loop(n int, rng *rand.Rand, rec *recorder, out *batch, o *serveOutput, only int) {
	var kinds [numKinds]uint8
	var decodeK uint8
	var verifyK [numKinds]uint8
	for k := range kinds {
		kinds[k] = rec.kind("request." + kindNames[k])
		verifyK[k] = rec.kind("verify." + kindNames[k])
	}
	decodeK = rec.kind("decode")
	if out.latencies == nil {
		out.latencies = make([]time.Duration, 0, n)
	}
	sent, done, inflight := 0, 0, 0
	for done < n {
		for inflight < serveWindow && sent < n {
			kind := only
			if only == mixed {
				kind = kindBare
				switch r := rng.Intn(100); {
				case r < serveNTSPct:
					kind = kindNTS
				case r < serveNTSPct+serveMACPct:
					kind = kindMAC
				}
			}
			slot := b.free[len(b.free)-1]
			b.free = b.free[:len(b.free)-1]
			b.spanID[slot], b.spanAt[slot] = rec.id(), rec.now()
			if err := b.send(slot, kind); err != nil {
				out.checks = append(out.checks, err.Error())
				b.release(slot)
				out.attempted++
				out.failed++
				done++
			} else {
				inflight++
			}
			sent++
			o.Sent[kind]++
			if only == mixed && sent%hostileEvery == 0 {
				if err := b.sendHostile(rng); err != nil {
					out.checks = append(out.checks, err.Error())
				}
				o.Hostile++
			}
		}
		if inflight == 0 {
			continue
		}
		// This fails only on a closed socket, which the Read reports.
		_ = b.conn.SetReadDeadline(time.Now().Add(serveTimeout))
		nr, err := b.conn.Read(b.recvBuf[:])
		now := time.Now()
		if err != nil {
			// A timeout or a read error: every request in flight has
			// lost its reply.
			out.checks = append(out.checks, fmt.Sprintf("%d replies missing: %v", inflight, err))
			for s := range b.pending {
				if b.pending[s] {
					b.release(s)
				}
			}
			out.attempted += int64(inflight)
			out.failed += int64(inflight)
			done += inflight
			inflight = 0
			continue
		}
		raw := b.recvBuf[:nr]
		d0 := rec.now()
		derr := ntpwire.DecodeInto(&b.resp, raw)
		slot := int(b.resp.OriginTime & serveSlotMask)
		if derr != nil || !b.pending[slot] || b.resp.OriginTime != b.ts[slot] {
			continue // a stray datagram: no request in flight is waiting for it
		}
		id := b.spanID[slot]
		rec.add(id, decodeK, d0)
		kind := b.kind[slot]
		ok := ntpwire.ValidServerResponse(&b.resp, b.ts[slot])
		if ok && kind != kindBare {
			ca := b.mac
			if kind == kindNTS {
				ca = b.nts[slot]
			}
			v0 := rec.now()
			authed, acceptable := ca.VerifyResponse(raw)
			rec.add(id, verifyK[kind], v0)
			ok = authed && acceptable
		}
		rec.add(id, kinds[kind], b.spanAt[slot])
		b.release(slot)
		inflight--
		done++
		out.attempted++
		if !ok {
			out.failed++
			out.checks = append(out.checks, fmt.Sprintf("invalid %s reply", kindNames[kind]))
			continue
		}
		out.work++
		out.latencies = append(out.latencies, now.Sub(b.sentAt[slot]))
	}
}

func (b *serveBench) release(slot int) {
	b.pending[slot] = false
	b.free = append(b.free, slot)
}

// send writes one request of the given kind from slot. Its transmit
// timestamp is unique and carries the slot in its low bits, so the
// reply's origin timestamp names the slot it answers.
func (b *serveBench) send(slot, kind int) error {
	b.seq++
	ts := ntpwire.Timestamp(0xE2000000_00000000 + b.seq<<6 + uint64(slot))
	p := ntpwire.Packet{Leap: ntpwire.LeapUnsync, Version: ntpwire.Version, Mode: ntpwire.ModeClient, Poll: 6, Precision: -20, TransmitTime: ts}
	buf := p.AppendEncode(b.sendBuf[:0])
	switch kind {
	case kindMAC:
		buf = b.mac.SealRequest(buf)
	case kindNTS:
		buf = b.nts[slot].SealRequest(buf)
	}
	b.sendBuf = buf
	b.pending[slot], b.ts[slot], b.kind[slot] = true, ts, kind
	b.sentAt[slot] = time.Now()
	if _, err := b.conn.Write(buf); err != nil {
		b.pending[slot] = false
		return fmt.Errorf("send: %w", err)
	}
	return nil
}

// sendHostile writes one datagram the server must drop: a truncated
// request, a request in server mode, or a request with a forged MAC.
func (b *serveBench) sendHostile(rng *rand.Rand) error {
	p := ntpwire.Packet{Version: ntpwire.Version, Mode: ntpwire.ModeClient, TransmitTime: ntpwire.Timestamp(rng.Uint64())}
	buf := p.AppendEncode(b.sendBuf[:0])
	switch rng.Intn(3) {
	case 0:
		buf = buf[:20]
	case 1:
		buf[0] = buf[0]&^7 | byte(ntpwire.ModeServer)
	default:
		var trailer [36]byte
		rng.Read(trailer[4:])
		trailer[3] = 1 // the key ID the server holds
		buf = append(buf, trailer[:]...)
	}
	b.sendBuf = buf
	if _, err := b.conn.Write(buf); err != nil {
		return fmt.Errorf("send hostile: %w", err)
	}
	return nil
}

func (b *serveBench) layers(first batch, rec *recorder, m map[string]metric) []string {
	o, _ := first.out.(serveOutput)
	for k, name := range kindNames {
		rtt := rec.durations("request." + name)
		m["wire.rtt_p50_us."+name] = metric{durUS(percentile(rtt, 0.5)), "us"}
		m["wire.rtt_p99_us."+name] = metric{durUS(percentile(rtt, 0.99)), "us"}
		if k != kindBare {
			m["ntpauth.verify_us."+name] = metric{meanUS(rec.durations("verify." + name)), "us"}
		}
	}
	m["ntpwire.decode_us"] = metric{meanUS(rec.durations("decode")), "us"}
	m["wirenet.served"] = metric{float64(o.Served), "count"}
	m["wirenet.dropped"] = metric{float64(o.Dropped), "count"}
	m["wirenet.hostile_drop_ratio"] = metric{ratio(float64(o.Dropped), float64(o.Hostile)), "ratio"}

	// Each kind's process CPU per request (client and server), sent
	// alone, and the share of the mix's CPU it accounts for.
	var checks []string
	var cost [numKinds]float64
	var total float64
	for k, name := range kindNames {
		var cb batch
		var co serveOutput
		served0 := b.srv.Served()
		c0 := procCPU()
		b.loop(serveCostRequests, rand.New(rand.NewSource(b.seed)), nil, &cb, &co, k)
		b.settle(served0+serveCostRequests, 0)
		cost[k] = (procCPU() - c0) / serveCostRequests
		total += cost[k] * float64(o.Sent[k])
		if cb.failed > 0 {
			checks = append(checks, fmt.Sprintf("%s alone: %d of %d requests failed", name, cb.failed, cb.attempted))
		}
		checks = append(checks, cb.checks...)
		m["wire.cpu_us_per_request."+name] = metric{cost[k] * 1e6, "us"}
	}
	for k, name := range kindNames {
		m["wire.cpu_share."+name] = metric{ratio(cost[k]*float64(o.Sent[k]), total), "ratio"}
	}
	return checks
}
