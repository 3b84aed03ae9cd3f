package wirenet_test

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"chronosntp/internal/clock"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
	"chronosntp/internal/wirenet"
)

// TestConformanceAuthenticatedResponseBytes extends the byte-level
// transport conformance pin to authenticated serving: MAC-trailered and
// NTS-protected requests, arriving at the same (virtual) instants at
// servers with the same keys and policy, must produce bit-identical
// credential-sealed replies from the simnet path and the real-socket
// path. Both transports route through ntpserver.Responder.ServeDatagram,
// so a divergence here means one of them grew its own framing or
// sealing semantics.
func TestConformanceAuthenticatedResponseBytes(t *testing.T) {
	const requests = 6
	interval := 250 * time.Millisecond
	start := simnet.Epoch

	macKeys := []ntpauth.Key{
		{ID: 1, Algo: ntpauth.AlgoMD5, Secret: []byte("legacy-md5-secret")},
		{ID: 7, Algo: ntpauth.AlgoSHA256, Secret: []byte("strong-sha256-secret")},
	}
	ntsMaster := bytes.Repeat([]byte{0x5a}, 16)
	const ntsSeed = int64(0x2121)

	mustTable := func(keys ...ntpauth.Key) *ntpauth.KeyTable {
		tbl, err := ntpauth.NewKeyTable(keys...)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}

	// mkAuth builds one path's server-side policy. Each transport gets
	// its own instance (the digest/AEAD scratch is stateful), built from
	// the same key material so sealed replies must agree byte for byte.
	mkAuth := func() *ntpauth.ServerAuth {
		srv, err := ntpauth.NewNTSServer(ntsMaster)
		if err != nil {
			t.Fatal(err)
		}
		return &ntpauth.ServerAuth{
			Keys:    mustTable(macKeys...),
			NTS:     srv,
			Require: true,
		}
	}

	// Request builders. Each returns the full set of request datagrams
	// up front so both transports replay the identical bytes, plus a
	// fresh client-side verifier replaying the same deterministic
	// credential sequence against the replies.
	type scenario struct {
		name   string
		reqs   func() [][]byte
		verify func() func(k int, reply []byte) (bool, bool)
	}
	mkMACReqs := func(key ntpauth.Key) func() [][]byte {
		return func() [][]byte {
			mac := ntpauth.NewMACer(mustTable(key))
			out := make([][]byte, requests)
			for k := range out {
				raw := ntpwire.NewClientPacket(start.Add(time.Duration(k) * interval)).Encode()
				sealed, ok := mac.AppendMAC(raw, key.ID, raw)
				if !ok {
					t.Fatalf("AppendMAC failed for key %d", key.ID)
				}
				out[k] = sealed
			}
			return out
		}
	}
	mkMACVerify := func(key ntpauth.Key) func() func(int, []byte) (bool, bool) {
		return func() func(int, []byte) (bool, bool) {
			ca := &ntpauth.ClientAuth{Key: key, Require: true}
			return func(_ int, reply []byte) (bool, bool) { return ca.VerifyResponse(reply) }
		}
	}
	// NTS requests are sealed once from a session established against a
	// scratch NTSServer sharing the master key: cookies carry their own
	// nonces, so the serving instances (whose mint counters start fresh
	// and identical) can open them and must mint identical refills.
	establish := func() *ntpauth.NTSSession {
		scratch, err := ntpauth.NewNTSServer(ntsMaster)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := ntpauth.Establish(scratch, ntsSeed, requests+2)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	ntsReqs := func() [][]byte {
		sess := establish()
		out := make([][]byte, requests)
		for k := range out {
			raw := ntpwire.NewClientPacket(start.Add(time.Duration(k) * interval)).Encode()
			sealed, ok := sess.SealRequest(raw)
			if !ok {
				t.Fatalf("NTS cookie pool exhausted at request %d", k)
			}
			out[k] = append([]byte(nil), sealed...)
		}
		return out
	}
	ntsVerify := func() func(int, []byte) (bool, bool) {
		// An identical session replays the same seal sequence (refilled
		// cookies append at the FIFO tail and are never popped within
		// `requests` seals, so the request bytes match the pre-sealed
		// set) and binds each reply to its own pending UID.
		sess := establish()
		ca := &ntpauth.ClientAuth{NTS: sess, Require: true}
		return func(k int, reply []byte) (bool, bool) {
			raw := ntpwire.NewClientPacket(start.Add(time.Duration(k) * interval)).Encode()
			if sealed := ca.SealRequest(raw); len(sealed) <= ntpwire.PacketSize {
				t.Fatalf("verifier session cookie pool exhausted at request %d", k)
			}
			return ca.VerifyResponse(reply)
		}
	}

	scenarios := []scenario{
		{"mac-md5", mkMACReqs(macKeys[0]), mkMACVerify(macKeys[0])},
		{"mac-sha256", mkMACReqs(macKeys[1]), mkMACVerify(macKeys[1])},
		{"nts", ntsReqs, ntsVerify},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			reqs := sc.reqs()
			mkConfig := func(epoch time.Time) ntpserver.Config {
				return ntpserver.Config{
					Clock: clock.New(epoch, -3*time.Millisecond, 0),
					Auth:  mkAuth(),
				}
			}

			// --- simnet path: zero latency, arrival instant == send instant.
			nw := simnet.New(simnet.Config{
				Seed:    9,
				Latency: func(src, dst simnet.IP, rng *rand.Rand) time.Duration { return 0 },
			})
			serverHost, err := nw.AddHost(simnet.IP{203, 0, 113, 1})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := ntpserver.New(serverHost, mkConfig(start))
			if err != nil {
				t.Fatal(err)
			}
			clientHost, err := nw.AddHost(simnet.IP{10, 0, 0, 1})
			if err != nil {
				t.Fatal(err)
			}
			var simReplies [][]byte
			const clientPort = 40000
			if err := clientHost.Listen(clientPort, func(now time.Time, meta simnet.Meta, payload []byte) {
				simReplies = append(simReplies, append([]byte(nil), payload...))
			}); err != nil {
				t.Fatal(err)
			}
			for k := range reqs {
				req := reqs[k]
				nw.After(time.Duration(k)*interval, func() {
					if err := clientHost.SendUDP(clientPort, srv.Addr(), req); err != nil {
						t.Errorf("sim send: %v", err)
					}
				})
			}
			nw.RunFor(time.Duration(requests)*interval + time.Second)
			if len(simReplies) != requests {
				t.Fatalf("sim path: got %d replies, want %d", len(simReplies), requests)
			}

			// --- wire path: one listener replaying the same arrival
			// instants through an injected deterministic clock.
			served := 0
			wireNow := func() time.Time {
				now := start.Add(time.Duration(served) * interval)
				served++
				return now
			}
			wsrv, err := wirenet.Serve(wirenet.ServerConfig{
				Listeners: 1,
				Responder: ntpserver.NewResponder(mkConfig(start)),
				Now:       wireNow,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer wsrv.Close()
			conn, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(wsrv.AddrPort()))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			verify := sc.verify()
			var buf [1024]byte
			for k := range reqs {
				if _, err := conn.Write(reqs[k]); err != nil {
					t.Fatal(err)
				}
				if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
					t.Fatal(err)
				}
				n, err := conn.Read(buf[:])
				if err != nil {
					t.Fatalf("wire reply %d: %v", k, err)
				}
				if !bytes.Equal(buf[:n], simReplies[k]) {
					t.Fatalf("reply %d differs between transports:\n  sim:  %x\n  wire: %x", k, simReplies[k], buf[:n])
				}
				if len(buf[:n]) <= ntpwire.PacketSize {
					t.Fatalf("reply %d carries no credentials (%d bytes)", k, n)
				}
				if authed, acceptable := verify(k, buf[:n]); !authed || !acceptable {
					t.Fatalf("reply %d fails client-side verification (authed=%v acceptable=%v)", k, authed, acceptable)
				}
			}

			// A credential-stripped request must be refused by both paths
			// under Require (silent drop, no crypto-NAK oracle).
			bare := ntpwire.NewClientPacket(start.Add(time.Hour)).Encode()
			if err := clientHost.SendUDP(clientPort, srv.Addr(), bare); err != nil {
				t.Fatal(err)
			}
			nw.RunFor(time.Second)
			// A Require policy with Deny unset answers bare requests with
			// an (unauthenticated) DENY kiss rather than time.
			if len(simReplies) != requests+1 {
				t.Fatalf("sim path: bare request produced %d replies, want one DENY kiss", len(simReplies)-requests)
			}
			var kiss ntpwire.Packet
			var kst ntpauth.AssocState
			origin := ntpwire.TimestampFromTime(start.Add(time.Hour))
			if v := ntpauth.CheckReply(&kiss, simReplies[requests], origin, nil, &kst); v != ntpauth.ReplyKissBelieved ||
				ntpauth.Code(&kiss) != ntpauth.KissDENY {
				t.Fatalf("bare request answered with %v, not a DENY kiss: %+v", v, kiss)
			}
		})
	}
}
