package main

import (
	"math/rand"
	"runtime"
	"time"

	"discs/internal/attack"
	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/parsim"
	"discs/internal/topology"
)

// The paper-44k workload is the `discs-sim -paper` scenario at
// -workers 1: the 44,036-AS synthetic Internet, the largest ASes
// originating and deploying, and a paced d-DDoS before and after the
// victim invokes DP.
const (
	paperDAS     = 10
	paperFlows   = 200
	paperPerFlow = 10
	paperWaves   = 8
)

// paperGen is the paper's generator config; smoke runs shrink the
// world.
func paperGen(smoke bool) topology.GenConfig {
	gen := topology.DefaultGenConfig()
	if smoke {
		gen.NumASes, gen.NumPrefixes = 2000, 4000
	}
	return gen
}

// runPaper is the paper-44k workload. The Internet is the paper's
// calibrated generator output, fixed for every seed; the seed draws
// the attack flows and their packets, so timings compare across seeds
// while the traffic still varies.
func runPaper(e *env) (*outcome, error) {
	gen := paperGen(e.smoke)
	return simLoop(e, "paper-44k", 3, func() (time.Duration, error) {
		t0 := time.Now()
		_, _, closeEng, err := paperSetup(nil, gen)
		if err != nil {
			return 0, err
		}
		closeEng()
		return time.Since(t0), nil
	}, func() (simIter, error) { return paperIteration(e, gen) })
}

// paperSetup generates the Internet, builds its BGP network and
// installs the parsim engine at -workers 1; the caller closes the
// engine.
func paperSetup(tr *tracer, gen topology.GenConfig) (*topology.Topology, *bgp.Network, func(), error) {
	tr.begin("topology.generate", false)
	topo, err := topology.GenerateInternet(gen)
	tr.end()
	if err != nil {
		return nil, nil, nil, err
	}
	tr.begin("bgp.build", false)
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	tr.end()
	if err != nil {
		return nil, nil, nil, err
	}
	net.AssignShards(parsim.DefaultShards)
	eng, err := parsim.New(net.Sim, parsim.Options{Shards: parsim.DefaultShards, Workers: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	return topo, net, eng.Close, nil
}

// paperIteration builds a fresh world and runs the timed scenario once.
func paperIteration(e *env, gen topology.GenConfig) (simIter, error) {
	tr := e.tr
	it := simIter{layer: map[string]float64{}}

	t0 := time.Now()
	tr.begin("setup", false)
	topo, net, closeEng, err := paperSetup(tr, gen)
	tr.end()
	if err != nil {
		return it, err
	}
	defer closeEng()
	it.setup = time.Since(t0)
	if tr != nil {
		tr.counters = func() map[string]uint64 { return net.Sim.Registry().Snapshot().Counters }
	}

	deployers := topo.BySizeDesc()[:paperDAS]
	victim := deployers[len(deployers)-1]
	// Start every timed part from a collected heap holding only this
	// world, so the previous iteration's garbage is not billed to it.
	runtime.GC()
	sw := startStopwatch()
	tr.begin("paper.run", true)

	tr.begin("bgp.converge", true)
	net.OriginateFirst(deployers...)
	err = net.Converge()
	tr.end()
	if err != nil {
		return it, err
	}
	if tr != nil {
		sw.pause()
		routes := countRoutes(net)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		it.layer["bgp.routes"] = float64(routes)
		it.layer["bgp.bytes_per_route"] = float64(ms.HeapAlloc) / float64(routes)
		sw.resume()
	}

	tr.begin("core.deploy", true)
	sys := core.NewSystem(net, core.DefaultConfig())
	for i, asn := range deployers {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			return it, err
		}
	}
	err = sys.Settle()
	tr.end()
	if err != nil {
		return it, err
	}

	// Routing trees toward the victim and its DAS peers, so attack
	// waves run on warm NextHop lookups.
	tr.begin("topology.warm", false)
	topo.WarmRoutes(deployers, 0)
	tr.end()

	rng := rand.New(rand.NewSource(e.seed))
	sampler := attack.NewSampler(topo)
	flows := make([]attack.Flow, paperFlows)
	for i := range flows {
		flows[i] = sampler.DrawFlowForVictim(attack.DDDoS, victim, rng)
	}
	tr.begin("attack.paced", true)
	before, err := attack.RunPaced(sys, flows, paperPerFlow, e.seed, paperWaves, time.Second)
	tr.end()
	if err != nil {
		return it, err
	}

	vc := sys.Controllers[victim]
	tr.begin("core.invoke", true)
	_, err = vc.Invoke(core.Invocation{Prefixes: vc.OwnPrefixes(), Function: core.DP, Duration: 24 * time.Hour})
	if err == nil {
		err = sys.Settle()
	}
	tr.end()
	if err != nil {
		return it, err
	}

	tr.begin("attack.paced", true)
	after, err := attack.RunPaced(sys, flows, paperPerFlow, e.seed+1, paperWaves, time.Second)
	tr.end()
	if err != nil {
		return it, err
	}
	tr.end() // paper.run
	it.run, it.cpu = sw.stop()
	it.packets = before.Sent + after.Sent

	snap := sys.Stats()
	it.outputs = map[string]int64{
		"bgp.routes":            int64(countRoutes(net)),
		"netsim.events":         int64(snap.Get("netsim.events")),
		"parsim.epochs":         int64(snap.Get(parsim.MetricEpochs)),
		"before.sent":           int64(before.Sent),
		"before.delivered":      int64(before.Delivered),
		"after.sent":            int64(after.Sent),
		"after.delivered":       int64(after.Delivered),
		"after.dropped":         int64(after.Dropped),
		"router.out_stamped":    int64(snap.Sum(core.MetricRouterOutStamped)),
		"router.out_dropped":    int64(snap.Sum(core.MetricRouterOutDropped)),
		"router.in_verified":    int64(snap.Sum(core.MetricRouterInVerified)),
		"router.in_verify_fail": int64(snap.Sum(core.MetricRouterInVerifyFail)),
		"router.in_dropped":     int64(snap.Sum(core.MetricRouterInDropped)),
	}
	it.check(before.Delivered == before.Sent, "d-DDoS before invocation: %d of %d delivered, want all", before.Delivered, before.Sent)
	it.check(after.Delivered+after.Dropped == after.Sent, "d-DDoS after invocation: %d delivered + %d dropped != %d sent", after.Delivered, after.Dropped, after.Sent)
	it.check(after.Dropped > 0, "DP invocation filtered nothing")
	it.check(int64(after.Dropped) == it.outputs["router.out_dropped"]+it.outputs["router.in_dropped"],
		"attack drops %d != router drops %d out + %d in", after.Dropped, it.outputs["router.out_dropped"], it.outputs["router.in_dropped"])
	it.check(it.outputs["bgp.routes"] == int64(topo.NumASes()*paperDAS),
		"bgp.routes %d, want every AS routing to every originated prefix (%d)", it.outputs["bgp.routes"], topo.NumASes()*paperDAS)

	if tr != nil {
		paperLayers(it.layer, tr)
	}
	legitProbe(&it, sys, victim, rng)
	return it, nil
}

// countRoutes totals Loc-RIB entries across every speaker.
func countRoutes(net *bgp.Network) int {
	n := 0
	for _, sp := range net.Speakers {
		n += len(sp.Routes())
	}
	return n
}

// paperLayers fills the span and counter metrics of a traced paper
// iteration.
func paperLayers(l map[string]float64, tr *tracer) {
	sec := func(name string) float64 { d, _ := tr.total(name); return d.Seconds() }
	for _, n := range []string{"topology.generate", "bgp.build", "bgp.converge", "core.deploy", "topology.warm", "attack.paced", "core.invoke"} {
		l[n+"_s"] = sec(n)
	}
	run, ok := tr.first("paper.run")
	if !ok {
		return
	}
	conv, _ := tr.first("bgp.converge")
	l["bgp.converge_allocs"] = conv.delta("runtime.allocs")
	simLayers(l, run)
}

// simLayers fills the counter metrics shared by the simulator
// workloads from the deltas across their timed span.
func simLayers(l map[string]float64, run span) {
	l["netsim.events"] = run.delta("netsim.events")
	l["netsim.delivered"] = run.delta("netsim.delivered")
	l["parsim.epochs"] = run.delta(parsim.MetricEpochs)
	l["parsim.stall_s"] = run.delta(parsim.MetricStallNS) / 1e9
	for _, m := range []string{core.MetricCtrlMsgsSent, core.MetricCtrlHandshakesInitiated, core.MetricCtrlRetries, core.MetricCtrlBytesSealed,
		core.MetricRouterOutStamped, core.MetricRouterInVerified, core.MetricRouterInVerifyFail, core.MetricRouterInDropped, core.MetricRouterMACsComputed} {
		l[m] = sumDelta(run, m)
	}
	if pkts := sumDelta(run, core.MetricRouterInProcessed) + sumDelta(run, core.MetricRouterOutProcessed); pkts > 0 {
		l["router.macs_per_pkt"] = l[core.MetricRouterMACsComputed] / pkts
	}
	runtimeLayers(l, run)
}

// runtimeLayers fills the Go runtime totals across a span.
func runtimeLayers(l map[string]float64, s span) {
	l["runtime.gc_cycles"] = s.delta("runtime.gc_cycles")
	l["runtime.alloc_mb"] = s.delta("runtime.alloc_bytes") / (1 << 20)
	l["runtime.gc_pause_s"] = s.delta("runtime.gc_pause_ns") / 1e9
}

// sumDelta sums a span's deltas of every per-AS counter with the given
// suffix ("as<N>.<suffix>").
func sumDelta(s span, suffix string) float64 {
	var t int64
	for k, v := range s.Deltas {
		if k == suffix || (len(k) > len(suffix) && k[len(k)-len(suffix)-1] == '.' && k[len(k)-len(suffix):] == suffix) {
			t += v
		}
	}
	return float64(t)
}
