package wirenet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// ErrTimeout is returned by Exchange when no valid reply arrives within
// the query deadline.
var ErrTimeout = errors.New("wirenet: exchange timed out")

// Sample is the measurement from one NTP client exchange.
type Sample struct {
	Offset time.Duration  // server clock − client clock (RFC 5905 §8)
	Delay  time.Duration  // round-trip delay
	Resp   ntpwire.Packet // the validated server reply
}

// Transport performs one client NTP exchange. Two implementations exist:
// UDPTransport speaks real sockets in real time, SimTransport drives the
// discrete-event simulator in virtual time. Both accept a reply only
// through ntpauth.CheckReply, the reply check the simnet clients run too.
// A Syncer is oblivious to which one it holds — that seam is what lets
// the conformance tests pin wire mode to the simulator.
//
// The transport owns the client's disciplined clock: Exchange measures
// offsets against it, Step applies a synchronisation correction to it
// (the real-wire analogue of clock.Clock.Step — the OS clock is never
// touched).
type Transport interface {
	// Exchange sends one mode-3 request to server and waits up to
	// timeout for a valid reply (mode 4, non-zero stratum, origin echo).
	Exchange(server netip.AddrPort, timeout time.Duration) (Sample, error)
	// Step disciplines the transport's client clock by delta.
	Step(delta time.Duration)
}

// replyBufs recycles UDPTransport's receive buffers: ntpauth.CheckReply
// hands the payload on to the auth verifier, so a buffer on Exchange's
// stack would move to the heap on every exchange.
var replyBufs = sync.Pool{New: func() any { return new([readBufSize]byte) }}

// UDPTransport exchanges NTP packets over real UDP sockets. The zero
// value is ready to use and reads the client clock from time.Now; the
// accumulated Step corrections are layered on top, so the transmit
// timestamps leaked in requests expose the *disciplined* clock — exactly
// the side channel adaptive MitM strategies read.
type UDPTransport struct {
	// Base supplies raw client clock readings; default time.Now.
	Base func() time.Time

	mu         sync.Mutex
	correction time.Duration
}

var _ Transport = (*UDPTransport)(nil)

// now reads the disciplined client clock.
func (t *UDPTransport) now() time.Time {
	t.mu.Lock()
	corr := t.correction
	t.mu.Unlock()
	if t.Base != nil {
		return t.Base().Add(corr)
	}
	return time.Now().Add(corr)
}

// Step implements Transport.
func (t *UDPTransport) Step(delta time.Duration) {
	t.mu.Lock()
	t.correction += delta
	t.mu.Unlock()
}

// Correction returns the accumulated discipline applied via Step.
func (t *UDPTransport) Correction() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.correction
}

// Exchange implements Transport over a connected UDP socket. The
// connected socket makes the kernel discard datagrams from any other
// source address — the socket-layer analogue of simnet clients checking
// Meta.From — and ntpauth.CheckReply skips replies that do not echo our
// transmit time.
func (t *UDPTransport) Exchange(server netip.AddrPort, timeout time.Duration) (Sample, error) {
	conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		return Sample{}, fmt.Errorf("wirenet: dial %s: %w", server, err)
	}
	defer conn.Close()

	t1 := t.now()
	origin := ntpwire.TimestampFromTime(t1)
	req := ntpwire.NewClientPacket(t1)
	if _, err := conn.Write(req.Encode()); err != nil {
		return Sample{}, fmt.Errorf("wirenet: send to %s: %w", server, err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Sample{}, err
	}
	buf := replyBufs.Get().(*[readBufSize]byte)
	defer replyBufs.Put(buf)
	for {
		n, err := conn.Read(buf[:])
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return Sample{}, fmt.Errorf("%w: %s", ErrTimeout, server)
			}
			return Sample{}, fmt.Errorf("wirenet: read from %s: %w", server, err)
		}
		var resp ntpwire.Packet
		if ntpauth.CheckReply(&resp, buf[:n], origin, nil, nil) != ntpauth.ReplyAccept {
			continue // malformed, a kiss, wrong mode or origin: keep waiting
		}
		t4 := t.now()
		off, delay := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
		return Sample{Offset: off, Delay: delay, Resp: resp}, nil
	}
}

// SimTransport performs the identical exchange against a simnet network,
// driving the event loop from outside (each Exchange pumps the network
// for the query timeout of virtual time, like the chronos.Client's
// per-attempt deadline). The client clock is a clock.Clock over virtual
// time; Step disciplines it exactly as chronos.Client.apply does.
type SimTransport struct {
	Host *simnet.Host
	// Clk is the client's local clock; nil means a perfect clock.
	Clk *clock.Clock
}

var _ Transport = (*SimTransport)(nil)

// clockNow reads the (possibly nil) client clock at a virtual instant.
func (t *SimTransport) clockNow(trueNow time.Time) time.Time {
	if t.Clk == nil {
		return trueNow
	}
	return t.Clk.Now(trueNow)
}

// Step implements Transport.
func (t *SimTransport) Step(delta time.Duration) {
	if t.Clk == nil {
		t.Clk = &clock.Clock{}
	}
	t.Clk.Step(t.Host.Net().Now(), delta)
}

// Correction returns the client clock's current error against virtual
// true time.
func (t *SimTransport) Correction() time.Duration {
	if t.Clk == nil {
		return 0
	}
	return t.Clk.Offset(t.Host.Net().Now())
}

// Exchange implements Transport on the simulated network.
func (t *SimTransport) Exchange(server netip.AddrPort, timeout time.Duration) (Sample, error) {
	nw := t.Host.Net()
	addr := simnet.AddrFromAddrPort(server)
	port := t.Host.EphemeralPort()
	if port == 0 {
		return Sample{}, errors.New("wirenet: no ephemeral port on simulated host")
	}

	t1 := t.clockNow(nw.Now())
	origin := ntpwire.TimestampFromTime(t1)
	var (
		sample Sample
		got    bool
	)
	err := t.Host.Listen(port, func(now time.Time, meta simnet.Meta, payload []byte) {
		if got || meta.From != addr {
			return
		}
		var resp ntpwire.Packet
		if ntpauth.CheckReply(&resp, payload, origin, nil, nil) != ntpauth.ReplyAccept {
			return
		}
		t4 := t.clockNow(now)
		off, delay := ntpwire.OffsetDelay(t1, resp.ReceiveTime.Time(), resp.TransmitTime.Time(), t4)
		sample = Sample{Offset: off, Delay: delay, Resp: resp}
		got = true
	})
	if err != nil {
		return Sample{}, err
	}
	defer t.Host.Close(port)

	req := ntpwire.NewClientPacket(t1)
	if err := t.Host.SendUDP(port, addr, req.Encode()); err != nil {
		return Sample{}, err
	}
	nw.RunFor(timeout)
	if !got {
		return Sample{}, fmt.Errorf("%w: %s", ErrTimeout, server)
	}
	return sample, nil
}
