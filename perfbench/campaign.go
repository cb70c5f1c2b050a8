package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"discs/internal/bgp"
	"discs/internal/core"
	"discs/internal/parsim"
	"discs/internal/scenario"
	"discs/internal/topology"
)

// campaignScale sizes the campaign-300 workload.
type campaignScale struct {
	gen            topology.GenConfig
	das            int
	flows, perFlow int // per attack phase
	pulses         int
	legitPerFlow   int
	deployCount    int
}

func campaignConfig(smoke bool) campaignScale {
	sc := campaignScale{
		gen: topology.GenConfig{
			NumASes: 300, NumPrefixes: 900, ZipfExponent: 1.0, Seed: 17, TierOneCount: 6,
		},
		das: 10, flows: 250, perFlow: 100, pulses: 8, legitPerFlow: 200, deployCount: 10,
	}
	if smoke {
		sc.gen.NumASes, sc.gen.NumPrefixes = 120, 360
		sc.flows, sc.perFlow, sc.pulses, sc.legitPerFlow, sc.deployCount = 40, 16, 4, 8, 3
	}
	return sc
}

// campaignSpec is the seven-phase campaign: legit baseline, pulse-wave
// onset, invocation, adaptive source rotation, carpet bombing,
// incremental deployment, and a sustained pulse train.
func campaignSpec(sc campaignScale, seed int64) (*scenario.Spec, error) {
	gap := 250 * time.Millisecond
	return scenario.New("campaign-300", seed).
		Legit("legit", sc.legitPerFlow).
		Pulse("onset", sc.flows, sc.perFlow, sc.pulses, gap).
		Invoke("invoke").
		Adaptive("rotate", scenario.StrategyRotate, sc.flows, sc.perFlow, sc.pulses, gap).
		Carpet("carpet", sc.flows, sc.perFlow, sc.pulses, gap).
		Deploy("deploy", sc.deployCount, "size").
		Pulse("sustain", sc.flows, sc.perFlow, sc.pulses, gap).
		Build()
}

// runCampaign is the campaign-300 workload. The 300-AS world is fixed;
// the seed drives the campaign's own RNG (flows, spoofed sources,
// rotation) and the probe traffic. The converged, deployed world is
// set-up; Engine.Run is the timed part.
func runCampaign(e *env) (*outcome, error) {
	sc := campaignConfig(e.smoke)
	return simLoop(e, "campaign-300", 0, nil, func() (simIter, error) { return campaignIteration(e, sc) })
}

func campaignIteration(e *env, sc campaignScale) (simIter, error) {
	tr := e.tr
	it := simIter{layer: map[string]float64{}}

	t0 := time.Now()
	tr.begin("setup", false)
	tr.begin("topology.generate", false)
	topo, err := topology.GenerateInternet(sc.gen)
	tr.end()
	if err != nil {
		return it, err
	}
	tr.begin("bgp.build", false)
	net, err := bgp.BuildNetwork(topo, time.Millisecond)
	tr.end()
	if err != nil {
		return it, err
	}
	if tr != nil {
		tr.counters = func() map[string]uint64 { return net.Sim.Registry().Snapshot().Counters }
	}
	net.AssignShards(parsim.DefaultShards)
	eng, err := parsim.New(net.Sim, parsim.Options{Shards: parsim.DefaultShards, Workers: 1})
	if err != nil {
		return it, err
	}
	defer eng.Close()
	tr.begin("bgp.converge", true)
	net.OriginateAll()
	err = net.Converge()
	tr.end()
	if err != nil {
		return it, err
	}
	tr.begin("core.deploy", true)
	sys := core.NewSystem(net, core.DefaultConfig())
	for i, asn := range topo.BySizeDesc()[:sc.das] {
		if _, err := sys.Deploy(asn, int64(i+1)); err != nil {
			return it, err
		}
	}
	err = sys.Settle()
	tr.end()
	if err != nil {
		return it, err
	}
	spec, err := campaignSpec(sc, e.seed)
	if err != nil {
		return it, err
	}
	seng, err := scenario.NewEngine(scenario.Options{Spec: spec, Sys: sys})
	if err != nil {
		return it, err
	}
	tr.end() // setup
	it.setup = time.Since(t0)

	// Start every timed part from a collected heap holding only this
	// world, so the previous iteration's garbage is not billed to it.
	runtime.GC()
	sw := startStopwatch()
	tr.begin("scenario.run", true)
	res, err := seng.Run()
	tr.end()
	it.run, it.cpu = sw.stop()
	if err != nil {
		return it, err
	}

	it.outputs = map[string]int64{"dataset.records": int64(len(res.Dataset))}
	for _, ph := range res.Phases {
		it.packets += ph.Sent
		k := fmt.Sprintf("phase%d.%s.", ph.Index, ph.Name)
		it.outputs[k+"sent"] = int64(ph.Sent)
		it.outputs[k+"delivered"] = int64(ph.Delivered)
		it.outputs[k+"dropped"] = int64(ph.Dropped)
		it.check(ph.Delivered+ph.Dropped == ph.Sent, "phase %s: %d delivered + %d dropped != %d sent", ph.Name, ph.Delivered, ph.Dropped, ph.Sent)
		if ph.Kind == scenario.PhaseLegit {
			it.outputs[k+"false_positives"] = int64(ph.FalsePositives)
			it.check(ph.FalsePositives == 0, "phase %s: %d legitimate packets dropped", ph.Name, ph.FalsePositives)
			it.check(ph.Sent > 0, "phase %s sent nothing", ph.Name)
		}
		if ph.Kind == scenario.PhaseDeploy {
			it.check(ph.NewDeployed == sc.deployCount, "phase %s deployed %d ASes, want %d", ph.Name, ph.NewDeployed, sc.deployCount)
		}
	}
	it.check(len(res.Phases) == len(spec.Phases), "%d phase results for %d phases", len(res.Phases), len(spec.Phases))
	it.check(len(res.Dataset) > 0, "campaign exported no dataset records")
	if m := res.TTM; m == nil || !m.Invoked || !m.Recovered {
		it.check(false, "campaign never mitigated: %+v", m)
	} else {
		it.outputs["ttm.first_attack_ns"] = int64(m.FirstAttackAt)
		it.outputs["ttm.invoked_ns"] = int64(m.InvokedAt)
		it.outputs["ttm.recovered_ns"] = int64(m.RecoveredAt)
		it.check(m.FirstAttackAt <= m.InvokedAt && m.InvokedAt <= m.RecoveredAt,
			"time-to-mitigation instants out of order: %+v", m)
	}

	if tr != nil {
		run, _ := tr.first("scenario.run")
		sec := func(name string) float64 { d, _ := tr.total(name); return d.Seconds() }
		for _, n := range []string{"topology.generate", "bgp.build", "bgp.converge", "core.deploy", "scenario.run"} {
			it.layer[n+"_s"] = sec(n)
		}
		simLayers(it.layer, run)
		it.layer["scenario.packets_sent"] = float64(it.packets)
		if it.packets > 0 {
			it.layer["scenario.allocs_per_pkt"] = run.delta("runtime.allocs") / float64(it.packets)
		}
	}

	legitProbe(&it, sys, res.Victim, rand.New(rand.NewSource(e.seed)))
	return it, nil
}
