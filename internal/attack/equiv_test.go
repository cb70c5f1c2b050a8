package attack

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/topology"
)

// referencePaced is the wave loop exactly as it lived here before the
// pacing moved into internal/scenario/pulse: draw every packet up
// front, then inject each flow's w-th contiguous slice per wave,
// advancing the clock by gap between waves. RunPaced must stay
// byte-identical to this schedule — same packets, same injection
// order, same simulated instants.
func referencePaced(sys *core.System, flows []Flow, perFlow int, seed int64, waves int, gap time.Duration) (Result, error) {
	if waves < 1 {
		waves = 1
	}
	rng := rand.New(rand.NewSource(seed))
	res := Result{DroppedAt: make(map[topology.ASN]int)}
	pkts := make([][]*packet.IPv4, len(flows))
	for i, f := range flows {
		ps, err := f.Packets(sys.Net.Topo, perFlow, rng)
		if err != nil {
			return res, err
		}
		pkts[i] = ps
	}
	sim := sys.Net.Sim
	for w := 0; w < waves; w++ {
		for i, f := range flows {
			lo, hi := w*len(pkts[i])/waves, (w+1)*len(pkts[i])/waves
			for _, p := range pkts[i][lo:hi] {
				res.tally(f, sys.SendV4(f.Agent, p))
			}
		}
		if gap > 0 && w < waves-1 {
			sim.Run(sim.Now() + gap)
		}
	}
	return res, nil
}

func TestRunPacedMatchesReferenceLoop(t *testing.T) {
	flows := []Flow{
		{Kind: DDDoS, Agent: 2, Innocent: 4, Victim: 3},
		{Kind: DDDoS, Agent: 4, Innocent: 2, Victim: 3},
		{Kind: SDDoS, Agent: 4, Innocent: 1, Victim: 3},
	}
	for _, tc := range []struct {
		name    string
		perFlow int
		waves   int
		gap     time.Duration
	}{
		{"single wave", 12, 1, 0},
		{"even split", 12, 4, 10 * time.Millisecond},
		{"ragged split", 7, 3, time.Millisecond},
		{"more waves than packets", 2, 5, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refSys, _ := runnerWorld(t)
			newSys, _ := runnerWorld(t)

			want, err := referencePaced(refSys, flows, tc.perFlow, 42, tc.waves, tc.gap)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunPaced(newSys, flows, tc.perFlow, 42, tc.waves, tc.gap)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("results diverge:\nreference %+v\nshim      %+v", want, got)
			}
			// The verdict counters of the two worlds must be identical —
			// same packets through the same tables at the same instants.
			ref, shim := refSys.Registry().Snapshot(), newSys.Registry().Snapshot()
			for name, v := range ref.Counters {
				if shim.Counters[name] != v {
					t.Errorf("counter %s: reference %d, shim %d", name, v, shim.Counters[name])
				}
			}
			for name, v := range shim.Counters {
				if _, ok := ref.Counters[name]; !ok && v != 0 {
					t.Errorf("counter %s only in shim run: %d", name, v)
				}
			}
			if refSys.Net.Sim.Now() != newSys.Net.Sim.Now() {
				t.Errorf("clocks diverge: reference %v, shim %v", refSys.Net.Sim.Now(), newSys.Net.Sim.Now())
			}
		})
	}
}

// referenceRandomAddr is RandomAddr as it was before it stopped
// allocating: it gathered the AS's IPv4 prefixes into a fresh slice on
// every call. RandomAddr must draw the same addresses from the same
// RNG stream.
func referenceRandomAddr(topo *topology.Topology, asn topology.ASN, rng *rand.Rand) (netip.Addr, bool) {
	a := topo.AS(asn)
	if a == nil {
		return netip.Addr{}, false
	}
	var v4 []netip.Prefix
	var total uint64
	for _, p := range a.Prefixes {
		if p.Addr().Is4() {
			v4 = append(v4, p)
			total += 1 << (32 - p.Bits())
		}
	}
	if len(v4) == 0 {
		return netip.Addr{}, false
	}
	x := rng.Uint64() % total
	for _, p := range v4 {
		size := uint64(1) << (32 - p.Bits())
		if x < size {
			base := p.Addr().As4()
			v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
			v += uint32(x)
			return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), true
		}
		x -= size
	}
	return netip.Addr{}, false
}

// randomAddrTopo is a generated 300-AS world plus AS 70000, which
// mixes IPv6 prefixes between its IPv4 ones, and AS 70001, which has
// IPv6 space only.
func randomAddrTopo(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.GenerateInternet(topology.GenConfig{NumASes: 300, NumPrefixes: 900, ZipfExponent: 1.0, Seed: 17, TierOneCount: 6})
	if err != nil {
		t.Fatal(err)
	}
	for asn, ps := range map[topology.ASN][]string{
		70000: {"2001:db8::/32", "198.18.0.0/16", "2001:db9::/48", "198.19.4.0/24", "203.0.113.0/28"},
		70001: {"2001:dba::/32"},
	} {
		if _, err := tp.AddAS(asn); err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if err := tp.AddPrefix(asn, netip.MustParsePrefix(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tp
}

// TestRandomAddrMatchesReference pins RandomAddr's address sequence for
// a fixed seed to the reference body, over every AS of the world.
func TestRandomAddrMatchesReference(t *testing.T) {
	tp := randomAddrTopo(t)
	got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	asns := append(append([]topology.ASN(nil), tp.ASNs()...), 99999)
	for round := 0; round < 20; round++ {
		for _, asn := range asns {
			a, ok := RandomAddr(tp, asn, got)
			ra, rok := referenceRandomAddr(tp, asn, want)
			if a != ra || ok != rok {
				t.Fatalf("round %d AS%d: RandomAddr = %v, %v; reference = %v, %v", round, asn, a, ok, ra, rok)
			}
		}
	}
	if _, ok := RandomAddr(tp, 70001, got); ok {
		t.Fatal("IPv6-only AS yielded an IPv4 address")
	}
}

func TestRandomAddrAllocs(t *testing.T) {
	tp := randomAddrTopo(t)
	rng := rand.New(rand.NewSource(9))
	big := tp.BySizeDesc()[0]
	if n := testing.AllocsPerRun(1000, func() {
		RandomAddr(tp, big, rng)
		RandomAddr(tp, 70000, rng)
	}); n != 0 {
		t.Fatalf("RandomAddr allocates %.1f times per call pair, want 0", n)
	}
}
