package bgp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"discs/internal/netsim"
	"discs/internal/parsim"
	"discs/internal/snapcodec"
	"discs/internal/topology"
)

// ribGen is the fixed generated world the RIB tests share: the
// campaign-scale 300-AS Internet with every AS originating its
// prefixes.
var ribGen = topology.GenConfig{NumASes: 300, NumPrefixes: 900, ZipfExponent: 1.0, Seed: 17, TierOneCount: 6}

// ribAdvertisers is how many of the largest ASes re-originate their
// first prefix with a DISCS-Ad after convergence.
const ribAdvertisers = 10

func ribTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.GenerateInternet(ribGen)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// buildRibWorld builds the network over topo; workers > 0 installs a
// parsim engine with that many workers over the default shards.
func buildRibWorld(t testing.TB, topo *topology.Topology, workers int) *Network {
	t.Helper()
	net, err := BuildNetwork(topo, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		net.AssignShards(parsim.DefaultShards)
		eng, err := parsim.New(net.Sim, parsim.Options{Shards: parsim.DefaultShards, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
	}
	return net
}

// convergeRibWorld originates every prefix, converges, then has the
// largest ASes re-originate their first prefix carrying a DISCS-Ad
// and converges again, so attributes and Ads cross the whole world.
func convergeRibWorld(t testing.TB, net *Network) {
	t.Helper()
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range net.Topo.BySizeDesc()[:ribAdvertisers] {
		p := net.Topo.AS(asn).Prefixes[0]
		ad := NewDISCSAdAttr(DISCSAd{Origin: asn, Controller: fmt.Sprintf("ctrl%d", asn)})
		if err := net.Speakers[asn].ReOriginate(p, ad); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
}

// multihomedEdge returns the first edge AS (no customers) with at
// least two providers.
func multihomedEdge(t testing.TB, topo *topology.Topology) topology.ASN {
	t.Helper()
	for _, asn := range topo.ASNs() {
		a := topo.AS(asn)
		if len(a.Customers) == 0 && len(a.Providers) >= 2 {
			return asn
		}
	}
	t.Fatal("no multi-homed edge AS in the world")
	return 0
}

func checkpointBytes(t testing.TB, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapcodec.NewWriter(&buf)
	if err := net.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func totalUpdatesSent(net *Network) uint64 {
	var n uint64
	for _, sp := range net.Speakers {
		n += sp.UpdatesSent
	}
	return n
}

// Golden values of TestCheckpointGolden, recorded on the map-based RIB
// this package had before the dense per-prefix table: the image bytes,
// the UPDATE count and the event count must not move when the RIB
// layout changes.
const (
	goldenIsolatedSHA256 = "17b7068478ba933cb299e749dadfad12e0ae1233816eac2cc341d392f5efe52e"
	goldenRestoredSHA256 = "2d6e0da60abf3b98e0f1fac8f661cf1c1bf9938e9edad06076af39f607f8c7c0"
	goldenUpdatesSent    = 406970
	goldenEvents         = 406970
)

// TestCheckpointGolden pins the checkpoint images of a converged world
// whose multi-homed edge AS is cut off from all of its neighbors and
// then reconnected. Isolation withdraws the edge's prefixes
// everywhere, leaving emptied Adj-RIB-In entries in every other
// speaker (the first image); reconnection refills them (the second).
// A restored network must checkpoint to the same bytes each time.
func TestCheckpointGolden(t *testing.T) {
	topo := ribTopo(t)
	net := buildRibWorld(t, topo, 0)
	convergeRibWorld(t, net)
	edge := multihomedEdge(t, topo)
	a := topo.AS(edge)
	nbrs := append(append([]topology.ASN(nil), a.Providers...), a.Peers...)
	setLinks := func(up bool) {
		t.Helper()
		for _, n := range nbrs {
			ok := false
			if up {
				ok = net.RestoreLink(edge, n)
			} else {
				ok = net.FailLink(edge, n)
			}
			if !ok {
				t.Fatalf("no link AS%d-AS%d", edge, n)
			}
		}
		if err := net.Converge(); err != nil {
			t.Fatal(err)
		}
	}

	setLinks(false)
	if r := net.Speakers[nbrs[0]].LocRib(a.Prefixes[0]); r != nil {
		t.Fatalf("isolated AS%d still reachable from AS%d: %+v", edge, nbrs[0], r)
	}
	isolated := checkpointBytes(t, net)
	setLinks(true)
	restored := checkpointBytes(t, net)

	sent := totalUpdatesSent(net)
	events := net.Sim.Stats().Get(netsim.MetricEvents)
	for _, c := range []struct {
		name string
		img  []byte
		want string
	}{{"isolated", isolated, goldenIsolatedSHA256}, {"restored", restored, goldenRestoredSHA256}} {
		sum := sha256.Sum256(c.img)
		got := hex.EncodeToString(sum[:])
		t.Logf("%s image: %d bytes, sha256 %s", c.name, len(c.img), got)
		if got != c.want {
			t.Errorf("%s image sha256 %s, want %s", c.name, got, c.want)
		}
		fresh := buildRibWorld(t, topo, 0)
		r := snapcodec.NewReader(c.img)
		if err := fresh.RestoreCheckpoint(r); err != nil {
			t.Fatal(err)
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		if again := checkpointBytes(t, fresh); !bytes.Equal(again, c.img) {
			t.Errorf("%s: restore -> checkpoint differs from the %d-byte image", c.name, len(c.img))
		}
	}
	t.Logf("%d UPDATEs sent, %d events", sent, events)
	if sent != goldenUpdatesSent {
		t.Errorf("UPDATEs sent %d, want %d", sent, goldenUpdatesSent)
	}
	if events != goldenEvents {
		t.Errorf("netsim.events %d, want %d", events, goldenEvents)
	}
}

// TestWorkersDifferentialRIB converges the same world on one and on
// four parsim workers and requires identical Loc-RIBs and Ads. UPDATEs
// and their AS paths are shared, immutable values handed across lanes,
// so under -race this is also the proof that sharing them is safe.
func TestWorkersDifferentialRIB(t *testing.T) {
	topo := ribTopo(t)
	serial, parallel := buildRibWorld(t, topo, 1), buildRibWorld(t, topo, 4)
	convergeRibWorld(t, serial)
	convergeRibWorld(t, parallel)
	for _, asn := range topo.ASNs() {
		a, b := serial.Speakers[asn], parallel.Speakers[asn]
		pa, pb := a.Routes(), b.Routes()
		if !slices.Equal(pa, pb) {
			t.Fatalf("AS%d routes %d prefixes at 1 worker, %d at 4", asn, len(pa), len(pb))
		}
		for _, p := range pa {
			ra, rb := a.LocRib(p), b.LocRib(p)
			if ra.From != rb.From || ra.Local != rb.Local || !slices.Equal(ra.ASPath, rb.ASPath) || !reflect.DeepEqual(ra.Attrs, rb.Attrs) {
				t.Fatalf("AS%d %v: 1 worker %+v, 4 workers %+v", asn, p, ra, rb)
			}
		}
		if ka, kb := a.KnownAds(), b.KnownAds(); !reflect.DeepEqual(ka, kb) {
			t.Fatalf("AS%d KnownAds: 1 worker %v, 4 workers %v", asn, ka, kb)
		}
	}
}

// Ceilings of TestRIBAllocationCeilings: the dense RIB measures 3.46
// allocations per UPDATE and 259 B per route on this world (the
// map-based RIB before it: 12.74 and 561), plus about 4% headroom.
const (
	maxAllocsPerUpdate = 3.6
	maxBytesPerRoute   = 270
)

// TestRIBAllocationCeilings guards the RIB's footprint with counts that
// do not depend on the host: heap allocations per received UPDATE
// while the world converges, and live heap bytes per Loc-RIB route
// once it has.
func TestRIBAllocationCeilings(t *testing.T) {
	topo := ribTopo(t)
	net := buildRibWorld(t, topo, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net.OriginateAll()
	if err := net.Converge(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	var recv uint64
	routes := 0
	for _, sp := range net.Speakers {
		recv += sp.UpdatesRecv
		routes += len(sp.Routes())
	}
	runtime.KeepAlive(net)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(recv)
	bytes := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(routes)
	t.Logf("%d UPDATEs received, %d routes: %.3f allocs/UPDATE, %.1f B/route", recv, routes, allocs, bytes)
	if allocs > maxAllocsPerUpdate {
		t.Errorf("%.3f allocations per received UPDATE, ceiling %v", allocs, maxAllocsPerUpdate)
	}
	if bytes > maxBytesPerRoute {
		t.Errorf("%.1f live heap bytes per Loc-RIB route, ceiling %v", bytes, maxBytesPerRoute)
	}
}
