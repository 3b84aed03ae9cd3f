package chronos_test

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"chronosntp/internal/chronos"
	"chronosntp/internal/clock"
	"chronosntp/internal/ntpauth"
	"chronosntp/internal/ntpclient"
	"chronosntp/internal/ntpserver"
	"chronosntp/internal/ntpwire"
	"chronosntp/internal/simnet"
)

// The client-policy digest grid: every pool composition under every auth
// mode and seed, run through both simnet clients (Chronos and the classic
// RFC 5905 client). It pins the round loop and the reply check of both
// clients bit for bit: any change to which replies are accepted, which
// kisses are believed, or how a round escalates moves the digest.
var (
	digestSeeds = []int64{11, 12, 13}
	// digestPools is (honest, liars): liars serve a constant shift.
	digestPools = []struct {
		name          string
		honest, liars int
		shift         time.Duration
	}{
		{"honest", 24, 0, 0},
		{"minority", 18, 6, 40 * time.Millisecond},
		{"supermajority", 8, 22, 400 * time.Millisecond},
		{"sparse", 5, 1, 40 * time.Millisecond},
	}
	// digestModes: mac keys the honest servers (one with a wrong secret)
	// and makes the clients require authentication; kod adds forgers
	// answering every request with a kiss (DENY, RATE, and one DENY that
	// does not echo the origin).
	digestModes = []struct {
		name     string
		mac, kod bool
	}{
		{"none", false, false},
		{"mac", true, false},
		{"kod", false, true},
		{"kod-mac", true, true},
	}
)

// clientDigest is the SHA-256 over one line per grid cell: the Chronos
// client's Stats and final offset, then the classic client's.
const clientDigest = "7889aba575396131af6374494251776d375e2f2623b1e188ef1e5e8935cb8efa"

var (
	digestKey   = ntpauth.Key{ID: 7, Algo: ntpauth.AlgoSHA256, Secret: []byte("client-digest-secret")}
	digestWrong = ntpauth.Key{ID: 7, Algo: ntpauth.AlgoSHA256, Secret: []byte("not-the-digest-secret")}
)

// digestNet builds one cell's network and returns it with the pool.
func digestNet(t *testing.T, seed int64, honest, liars int, shift time.Duration, mac, kod bool) (*simnet.Network, []simnet.IP) {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: seed})
	var ips []simnet.IP
	for i := 0; i < honest; i++ {
		ip := simnet.IPv4(203, 0, 9, byte(1+i))
		host, err := n.AddHost(ip)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ntpserver.Config{Clock: clock.New(n.Now(), time.Duration(i%5-2)*time.Millisecond, 0)}
		if mac {
			key := digestKey
			if i == honest-1 {
				key = digestWrong
			}
			tbl, err := ntpauth.NewKeyTable(key)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Auth = &ntpauth.ServerAuth{Keys: tbl}
		}
		if _, err := ntpserver.New(host, cfg); err != nil {
			t.Fatal(err)
		}
		ips = append(ips, ip)
	}
	if liars > 0 {
		_, lips, err := ntpserver.MaliciousFarm(n, simnet.IPv4(66, 0, 9, 1), liars, ntpserver.ConstantShift(shift))
		if err != nil {
			t.Fatal(err)
		}
		ips = append(ips, lips...)
	}
	if kod {
		for i := 0; i < 3; i++ {
			ip := simnet.IPv4(66, 0, 10, byte(1+i))
			host, err := n.AddHost(ip)
			if err != nil {
				t.Fatal(err)
			}
			code, spoofOrigin := ntpauth.KissDENY, i == 2
			if i == 1 {
				code = ntpauth.KissRATE
			}
			h := host
			if err := host.Listen(ntpwire.Port, func(now time.Time, meta simnet.Meta, payload []byte) {
				var req, kiss ntpwire.Packet
				if ntpwire.DecodeInto(&req, payload) != nil {
					return
				}
				ntpauth.FillKoD(&kiss, code, &req, now)
				if spoofOrigin {
					kiss.OriginTime++
				}
				_ = h.SendUDP(ntpwire.Port, meta.From, kiss.Encode())
			}); err != nil {
				t.Fatal(err)
			}
			ips = append(ips, ip)
		}
	}
	return n, ips
}

// TestClientPolicyDigest runs the grid and compares the digest.
func TestClientPolicyDigest(t *testing.T) {
	h := sha256.New()
	for _, seed := range digestSeeds {
		for _, pool := range digestPools {
			for _, mode := range digestModes {
				var ca *ntpauth.ClientAuth
				if mode.mac {
					ca = &ntpauth.ClientAuth{Key: digestKey, Require: true}
				}

				n, ips := digestNet(t, seed, pool.honest, pool.liars, pool.shift, mode.mac, mode.kod)
				ch, err := n.AddHost(simnet.IPv4(10, 0, 9, 1))
				if err != nil {
					t.Fatal(err)
				}
				ccfg := chronos.Config{SyncInterval: 16 * time.Second, SampleSize: 9, MinReplies: 6}
				if mode.mac || mode.kod {
					ccfg.Auth = &chronos.AuthPolicy{}
					if ca != nil {
						ccfg.Auth.ForServer = func(simnet.IP) *ntpauth.ClientAuth { return ca }
					}
				}
				cc := chronos.New(ch, clock.New(n.Now(), 20*time.Millisecond, 0), nil, ccfg)
				if err := cc.SeedPool(ips); err != nil {
					t.Fatal(err)
				}
				n.RunFor(20 * time.Minute)
				cc.Stop()

				n, ips = digestNet(t, seed, pool.honest, pool.liars, pool.shift, mode.mac, mode.kod)
				nh, err := n.AddHost(simnet.IPv4(10, 0, 9, 1))
				if err != nil {
					t.Fatal(err)
				}
				nc := ntpclient.New(nh, clock.New(n.Now(), 50*time.Millisecond, 0), nil, ntpclient.Config{
					ServerIPs: ips, MaxServers: len(ips), PollInterval: 16 * time.Second, Auth: ca,
				})
				nc.Start(nil)
				n.RunFor(20 * time.Minute)
				nc.Stop()

				fmt.Fprintf(h, "%d/%s/%s chronos %+v %v ntp %+v %v\n", seed, pool.name, mode.name,
					cc.Stats(), cc.Offset(), nc.Stats(), nc.Offset())
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != clientDigest {
		t.Fatalf("client policy digest %s, want %s", got, clientDigest)
	}
}
