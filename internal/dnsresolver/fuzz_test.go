package dnsresolver

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"chronosntp/internal/dnswire"
	"chronosntp/internal/simnet"
)

// spooferIP is an off-path host that answers in the real server's place.
var spooferIP = simnet.IPv4(203, 0, 113, 66)

// FuzzResolverAccept feeds arbitrary bytes to the resolver as the answer
// to an outstanding upstream query for pool.ntp.org, sent to the ntp.org
// server. This is the acceptance boundary DNS cache poisoning attacks.
// The patch flags give the bytes the query's TXID (patchID) and question
// (patchQuestion) first, so the fuzzer reaches the bailiwick and referral
// logic behind those checks; with spoof set, the bytes arrive from
// another address.
// Invariants:
//   - no cached owner name lies outside the queried zone, ntp.org;
//   - a response with a TXID, question or source-address mismatch (or one
//     that does not decode) leaves Cache.Dump unchanged;
//   - nothing panics.
func FuzzResolverAccept(f *testing.F) {
	query := dnswire.NewQuery(0, "pool.ntp.org", dnswire.TypeA)
	answer := query.Reply()
	answer.Authoritative = true
	answer.Answers = append(answer.Answers,
		dnswire.ARecord("pool.ntp.org", 150, [4]byte{192, 0, 2, 1}),
		dnswire.ARecord("pool.ntp.org", 150, [4]byte{192, 0, 2, 2}),
		dnswire.ARecord("time.example.com", 86400, [4]byte{6, 6, 6, 6}))
	referral := query.Reply()
	referral.Authority = append(referral.Authority,
		dnswire.NSRecord("pool.ntp.org", 3600, "ns1.pool.ntp.org"),
		dnswire.NSRecord("example.com", 3600, "ns.example.com"))
	referral.Additional = append(referral.Additional,
		dnswire.ARecord("ns1.pool.ntp.org", 3600, [4]byte{192, 0, 2, 53}),
		dnswire.ARecord("ns.example.com", 3600, [4]byte{6, 6, 6, 6}),
		dnswire.ARecord("other.ntp.org", 3600, [4]byte{6, 6, 6, 6}))
	// An in-zone delegation to an out-of-bailiwick nameserver, with glue
	// for it: the glue must not be cached.
	outGlue := query.Reply()
	outGlue.Authority = append(outGlue.Authority, dnswire.NSRecord("pool.ntp.org", 3600, "ns.example.com"))
	outGlue.Additional = append(outGlue.Additional, dnswire.ARecord("ns.example.com", 3600, [4]byte{6, 6, 6, 6}))
	// A well-formed answer to a different question.
	other := dnswire.NewQuery(0, "pool.ntp.org", dnswire.TypeTXT).Reply()
	other.Answers = append(other.Answers, dnswire.ARecord("pool.ntp.org", 150, [4]byte{6, 6, 6, 6}))
	nx := query.Reply()
	nx.RCode = dnswire.RCodeNXDomain
	for _, m := range []*dnswire.Message{answer, referral, outGlue, other, nx} {
		b, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		for _, patchID := range []bool{true, false} {
			for _, patchQuestion := range []bool{true, false} {
				f.Add(b, patchID, patchQuestion, false)
				f.Add(b, patchID, patchQuestion, true)
			}
		}
	}
	f.Add([]byte{0x12, 0x34, 0x81, 0x80}, true, true, false)

	zone := "ntp.org"
	f.Fuzz(func(t *testing.T, data []byte, patchID, patchQuestion, spoof bool) {
		n := simnet.New(simnet.Config{Seed: 5})
		var hosts [3]*simnet.Host
		for i, ip := range []simnet.IP{resolverIP, ntpOrgIP, spooferIP} {
			h, err := n.AddHost(ip)
			if err != nil {
				t.Fatal(err)
			}
			hosts[i] = h
		}
		resHost, server, spoofer := hosts[0], hosts[1], hosts[2]
		r, err := New(resHost, Config{}, []Hint{{Zone: zone, Addr: simnet.Addr{IP: ntpOrgIP, Port: DNSPort}}})
		if err != nil {
			t.Fatal(err)
		}
		var sent *dnswire.Message
		var sentFrom simnet.Addr
		if err := server.Listen(DNSPort, func(now time.Time, meta simnet.Meta, payload []byte) {
			if sent == nil {
				sent, _ = dnswire.Decode(payload)
				sentFrom = meta.From
			}
		}); err != nil {
			t.Fatal(err)
		}
		// An in-zone record a rejected response must leave untouched.
		r.Cache().Put(n.Now(), "other.ntp.org", dnswire.TypeA,
			[]dnswire.RR{dnswire.ARecord("other.ntp.org", 3600, [4]byte{192, 0, 2, 9})})
		r.Lookup("pool.ntp.org", dnswire.TypeA, func(Result) {})
		n.RunFor(20 * time.Millisecond)
		if sent == nil || len(sent.Questions) != 1 {
			t.Fatal("the resolver sent no decodable upstream query")
		}

		resp := patchResponse(data, sent, patchID, patchQuestion)
		from := server
		if spoof {
			from = spoofer
		}
		before := r.Cache().Dump(n.Now())
		_ = from.SendUDP(DNSPort, sentFrom, resp)
		n.RunFor(20 * time.Millisecond)
		after := r.Cache().Dump(n.Now())

		for _, rr := range after {
			if !dnswire.InZone(rr.Name, zone) {
				t.Fatalf("cached %s %v lies outside the queried zone %q", rr.Name, rr.Type, zone)
			}
		}
		if !matchesQuery(resp, sent) || spoof {
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("a mismatched response (spoof=%v) changed the cache:\nbefore %v\nafter  %v", spoof, before, after)
			}
		}
	})
}

// patchResponse gives data the outstanding query's TXID and, when data
// decodes, its question, as the flags ask.
func patchResponse(data []byte, query *dnswire.Message, id, question bool) []byte {
	if !id && !question {
		return data
	}
	if msg, err := dnswire.Decode(data); err == nil {
		if id {
			msg.ID = query.ID
		}
		if question {
			msg.Questions = append(msg.Questions[:0], query.Questions[0])
		}
		if b, err := msg.Encode(); err == nil {
			return b
		}
	}
	out := append([]byte(nil), data...)
	if id && len(out) >= 2 {
		binary.BigEndian.PutUint16(out, query.ID)
	}
	return out
}

// matchesQuery reports whether resp decodes as a response carrying the
// query's TXID and exactly its question.
func matchesQuery(resp []byte, query *dnswire.Message) bool {
	msg, err := dnswire.Decode(resp)
	if err != nil || !msg.Response || msg.ID != query.ID || len(msg.Questions) != 1 {
		return false
	}
	q, want := msg.Questions[0], query.Questions[0]
	return dnswire.NormalizeName(q.Name) == want.Name && q.Type == want.Type
}
