package ntpauth

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"chronosntp/internal/ntpwire"
)

// fuzzAuthEnv is the shared fixture for FuzzAuthExtensions: one key per
// algorithm, an NTS server, and a require-auth policy over both. Built
// lazily once per process; the fuzz callback runs sequentially within a
// process so the non-concurrency-safe MACer state is fine.
type fuzzAuthEnv struct {
	table  *KeyTable
	mac    *MACer
	srv    *NTSServer
	policy *ServerAuth
}

var fuzzAuth = sync.OnceValue(func() *fuzzAuthEnv {
	table, err := NewKeyTable(
		Key{ID: 1, Algo: AlgoMD5, Secret: []byte("fuzz-md5")},
		Key{ID: 2, Algo: AlgoSHA1, Secret: []byte("fuzz-sha1")},
		Key{ID: 3, Algo: AlgoSHA256, Secret: []byte("fuzz-sha256")},
	)
	if err != nil {
		panic(err)
	}
	srv, err := NewNTSServer(bytes.Repeat([]byte{0x42}, 16))
	if err != nil {
		panic(err)
	}
	return &fuzzAuthEnv{
		table:  table,
		mac:    NewMACer(table),
		srv:    srv,
		policy: &ServerAuth{Keys: table, NTS: srv, Require: true},
	}
})

// FuzzAuthExtensions hammers the authenticated-datagram surface —
// ntpwire.SplitAuth/ExtIter framing plus the ServerAuth classification
// that sits directly on the wirenet read loop — with arbitrary bytes.
// Invariants: no panics anywhere; SplitAuth's regions tile the
// datagram exactly; extension iteration stays in bounds; and
// verify-iff-valid — whenever classification reports a valid MAC, an
// independent recomputation of the digest must agree, so forged or
// bit-flipped trailers can never classify as authenticated.
func FuzzAuthExtensions(f *testing.F) {
	env := fuzzAuth()
	t1 := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	base := ntpwire.NewClientPacket(t1).Encode()

	// Seeds: bare header; one genuine MAC per algorithm; a genuine NTS
	// request; a lone uid extension; a truncated MAC; framing soup.
	f.Add(append([]byte(nil), base...))
	for id := uint32(1); id <= 3; id++ {
		sealed, _ := env.mac.AppendMAC(append([]byte(nil), base...), id, base)
		f.Add(sealed)
	}
	if sess, err := Establish(env.srv, 99, 2); err == nil {
		if sealed, ok := sess.SealRequest(append([]byte(nil), base...)); ok {
			f.Add(sealed)
		}
	}
	f.Add(ntpwire.AppendExtension(append([]byte(nil), base...), ntpwire.ExtUniqueIdentifier, make([]byte, 16)))
	f.Add(append(append([]byte(nil), base...), make([]byte, 19)...))
	f.Add(append(append([]byte(nil), base...), 0x01, 0x04, 0x00, 0x03))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ext, mac, ok := ntpwire.SplitAuth(data)
		if ok {
			if ntpwire.PacketSize+len(ext)+len(mac) != len(data) {
				t.Fatalf("regions do not tile: %d+%d+%d != %d",
					ntpwire.PacketSize, len(ext), len(mac), len(data))
			}
			// Iteration must terminate and stay in bounds (a panic here
			// fails the fuzz run).
			it := ntpwire.IterExtensions(ext)
			for {
				_, body, more := it.Next()
				if !more {
					break
				}
				_ = body
			}
		} else if len(data) >= ntpwire.PacketSize {
			// Malformed post-header region: it must not be empty.
			if len(data) == ntpwire.PacketSize {
				t.Fatal("SplitAuth rejected a bare header")
			}
		}

		var ra RequestAuth
		env.policy.Authenticate(data, &ra)
		if ra.Kind == AuthMAC {
			// verify-iff-valid: recompute the digest independently.
			k, found := env.table.Lookup(ra.KeyID)
			if !found {
				t.Fatalf("authenticated under unknown key %d", ra.KeyID)
			}
			trailer := data[len(data)-k.Algo.TrailerSize():]
			if got := binary.BigEndian.Uint32(trailer[:4]); got != ra.KeyID {
				t.Fatalf("trailer key ID %d != classified %d", got, ra.KeyID)
			}
			fresh := NewMACer(env.table)
			if _, ok := fresh.Verify(data[:len(data)-len(trailer)], trailer); !ok {
				t.Fatal("classified MAC does not re-verify")
			}
		}
		if ra.Authenticated() && ra.Bad {
			t.Fatal("authenticated and bad at once")
		}

		// The client-side verifier must be panic-free on the same bytes.
		client := &ClientAuth{Key: Key{ID: 3, Algo: AlgoSHA256, Secret: []byte("fuzz-sha256")}, Require: true}
		authed, acc := client.VerifyResponse(data)
		if authed && !acc {
			t.Fatal("authenticated reply not acceptable")
		}
	})
}

// FuzzClientReply drives CheckReply — the reply check every NTP client
// in the stack runs — with arbitrary reply datagrams under four client
// policies: no auth and no KoD handling, MAC optional, MAC required, and
// NTS required. Invariants: no panics; a reply is accepted only when it
// decodes to mode 4 with a non-zero stratum, echoes the origin, and an
// independent copy of the policy accepts it; a kiss is classified only
// for a KoD-aware caller, and believed only when it echoes the origin
// and authenticates or the policy does not require it; only a believed
// kiss touches the association state.
func FuzzClientReply(f *testing.F) {
	t1 := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	origin := ntpwire.TimestampFromTime(t1)
	req := ntpwire.NewClientPacket(t1)
	key := Key{ID: 3, Algo: AlgoSHA256, Secret: []byte("fuzz-sha256")}
	table, _ := NewKeyTable(key)
	srv, _ := NewNTSServer(bytes.Repeat([]byte{0x42}, 16))
	const ntsSeed = 7
	// ntsRequest establishes a fresh session and seals the fixed request,
	// so every call's session expects the same unique identifier.
	ntsRequest := func() (*NTSSession, []byte) {
		sess, err := Establish(srv, ntsSeed, 1)
		if err != nil {
			panic(err)
		}
		raw, _ := sess.SealRequest(req.Encode())
		return sess, raw
	}

	reply := ntpwire.Packet{Mode: ntpwire.ModeServer, Version: 4, Stratum: 2, OriginTime: origin,
		ReceiveTime: origin + 1<<32, TransmitTime: origin + 2<<32}
	var kiss ntpwire.Packet
	FillKoD(&kiss, KissDENY, req, t1)
	macSeal := func(p *ntpwire.Packet) []byte {
		out, _ := NewMACer(table).AppendMAC(p.Encode(), key.ID, p.Encode())
		return out
	}
	_, ntsRaw := ntsRequest()
	srvAuth := &ServerAuth{Keys: table, NTS: srv}
	var ra RequestAuth
	srvAuth.Authenticate(ntsRaw, &ra)

	f.Add(reply.Encode())                                                   // bare valid reply
	f.Add(macSeal(&reply))                                                  // MAC-sealed reply
	f.Add(srvAuth.SealResponse(reply.Encode(), &ra))                        // NTS-sealed reply
	f.Add(kiss.Encode())                                                    // forged (bare) DENY kiss
	f.Add(macSeal(&kiss))                                                   // authenticated DENY kiss
	f.Add(append(reply.Encode(), make([]byte, 20)...))                      // zeroed MAC trailer
	f.Add((&ntpwire.Packet{Mode: ntpwire.ModeServer, Stratum: 2}).Encode()) // no origin echo
	f.Add([]byte{0x24})

	f.Fuzz(func(t *testing.T, data []byte) {
		sess, _ := ntsRequest()
		twin, _ := ntsRequest()
		policies := []struct {
			auth, check *ClientAuth // check is the independent copy
			kod         bool
		}{
			{nil, nil, false},
			{&ClientAuth{Key: key}, &ClientAuth{Key: key}, true},
			{&ClientAuth{Key: key, Require: true}, &ClientAuth{Key: key, Require: true}, true},
			{&ClientAuth{NTS: sess, Require: true}, &ClientAuth{NTS: twin, Require: true}, true},
		}
		for i, p := range policies {
			var kst *AssocState
			if p.kod {
				kst = new(AssocState)
			}
			var resp, dec ntpwire.Packet
			decErr := ntpwire.DecodeInto(&dec, data)
			got := CheckReply(&resp, data, origin, p.auth, kst)
			authed, acceptable := p.check.VerifyResponse(data)
			switch got {
			case ReplyAccept:
				if decErr != nil || dec.Mode != ntpwire.ModeServer || dec.Stratum == 0 || dec.OriginTime != origin || !acceptable {
					t.Fatalf("policy %d accepted %+v (decode %v, acceptable %v)", i, dec, decErr, acceptable)
				}
			case ReplyAuthReject:
				if p.auth == nil || acceptable || decErr != nil || !ntpwire.ValidServerResponse(&dec, origin) {
					t.Fatalf("policy %d auth-rejected a reply its policy accepts", i)
				}
			case ReplyKissBelieved, ReplyKissUnbelieved:
				if kst == nil || decErr != nil || !isKoD(&dec) || dec.OriginTime != origin {
					t.Fatalf("policy %d classified %+v as a kiss", i, dec)
				}
				believed := authed || !p.auth.RequiresAuth()
				if believed != (got == ReplyKissBelieved) {
					t.Fatalf("policy %d: kiss %v with authed=%v require=%v", i, got, authed, p.auth.RequiresAuth())
				}
			}
			if kst != nil && got != ReplyKissBelieved && *kst != (AssocState{}) {
				t.Fatalf("policy %d: %v changed the association state to %+v", i, got, *kst)
			}
			if got == ReplyKissBelieved && Demobilize(Code(&dec)) != kst.Dead {
				t.Fatalf("policy %d: believed %v kiss left Dead=%v", i, Code(&dec), kst.Dead)
			}
		}
	})
}
