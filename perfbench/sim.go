package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"discs/internal/attack"
	"discs/internal/core"
	"discs/internal/packet"
	"discs/internal/topology"
)

// simIter is one iteration of a simulator workload: a freshly built
// world, its timed part, and the deterministic outputs it produced.
type simIter struct {
	setup, run, cpu time.Duration
	packets         int // data-plane packets the timed part injected

	// Legitimate probe traffic sent after the timed part.
	probeLatUS         []float64
	probeSent, probeOK int

	outputs  map[string]int64   // checked against refs
	layer    map[string]float64 // per-layer numbers of a traced iteration
	problems []string           // failed invariants
}

func (it *simIter) check(ok bool, format string, args ...any) {
	if !ok {
		it.problems = append(it.problems, fmt.Sprintf(format, args...))
	}
}

// simLoop runs iterations until the budget is spent (exactly one when
// traced, so per-layer numbers describe one iteration) and folds them
// into an outcome: medians of per-iteration timings, pooled probe
// latencies, and output checks. Each iteration's outputs must match
// the held references (refs.go) and, on seeds without a full
// reference, the first iteration's — the simulator is deterministic.
//
// extraSetup, when set, builds (and drops) a world without running it;
// it runs extraSetups times first, so a workload whose set-up is short
// next to its timed part still reports a median over several set-ups.
func simLoop(e *env, workload string, extraSetups int, extraSetup func() (time.Duration, error), one func() (simIter, error)) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var (
		setups, runs, cpus, rates []float64
		lat                       []float64
		sent, ok                  int
	)
	want, exact := refFor(workload, e)
	start := time.Now()
	for i := 0; i < extraSetups && e.tr == nil; i++ {
		d, err := extraSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	for i := 0; i == 0 || (e.tr == nil && time.Since(start) < e.budget); i++ {
		it, err := one()
		if err != nil {
			return nil, err
		}
		o.attempted++
		if e.tr != nil {
			o.layer = it.layer
		}
		setups = append(setups, it.setup.Seconds())
		runs = append(runs, it.run.Seconds())
		cpus = append(cpus, it.cpu.Seconds())
		rates = append(rates, float64(it.packets)/it.run.Seconds()/1e6)
		lat = append(lat, it.probeLatUS...)
		sent += it.probeSent
		ok += it.probeOK
		it.check(it.probeOK == it.probeSent, "%d of %d legitimate probe packets dropped", it.probeSent-it.probeOK, it.probeSent)
		if o.outputs == nil {
			o.outputs = it.outputs
		}
		if bad := diffOutputs(want, it.outputs); len(bad) > 0 {
			it.check(false, "outputs differ from the held reference: %v", bad)
		}
		if !exact && i > 0 {
			if bad := diffOutputs(o.outputs, it.outputs); len(bad) > 0 {
				it.check(false, "outputs differ from iteration 0: %v", bad)
			}
		}
		if len(it.problems) > 0 {
			o.failed++
			for _, p := range it.problems {
				o.problems = append(o.problems, fmt.Sprintf("iteration %d: %s", i, p))
			}
		}
		e.logf("%s iteration %d: setup %.3fs run %.3fs cpu %.3fs, %d packets, probe p50 %.3fus",
			workload, i, it.setup.Seconds(), it.run.Seconds(), it.cpu.Seconds(), it.packets, median(it.probeLatUS))
	}
	sort.Float64s(lat)
	if p, supported := tailPercentile(len(lat)); !supported || p < 99 {
		o.failed++
		o.check(false, "%d probe samples cannot support a p99 (highest supported p%g)", len(lat), p)
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["run_s"] = median(runs)
	o.e2e["cpu_s"] = median(cpus)
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.e2e["mpps"] = median(rates)
	if sent > 0 {
		o.e2e["delivery_ratio"] = float64(ok) / float64(sent)
	}
	o.e2e["latency_p50_us"] = percentile(lat, 50)
	if e.tr != nil {
		o.layer["latency.p99_us"] = percentile(lat, 99)
		o.layer["latency.samples"] = float64(len(lat))
	}
	e.logf("%s: %d iterations, %d set-ups, %d probe samples (p99 %.2fus)", workload, o.attempted, len(setups), len(lat), percentile(lat, 99))
	return o, nil
}

// diffOutputs lists the keys of want that got lacks or disagrees on.
func diffOutputs(want, got map[string]int64) []string {
	var bad []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			bad = append(bad, fmt.Sprintf("%s=%d (want %d)", k, g, w))
		}
	}
	sort.Strings(bad)
	return bad
}

// probePackets legitimate probe packets per iteration come from up to
// probeSources source ASes and go out in probeChunks chunks probeGap
// apart. The sizes give a p99 far more than ten samples deep; the
// sources spread it over many paths; the gaps spread it over a second,
// because on a shared host the cost of one short burst of packets
// swings by half between bursts a few hundred milliseconds apart.
const (
	probePackets = 20000
	probeSources = 1000
	probeChunks  = 20
	probeGap     = 40 * time.Millisecond
)

// legitProbe sends genuine traffic toward the victim from sources drawn
// from the whole topology, through System.SendV4 one packet at a time,
// timing each delivery. It runs after the timed part on a freshly
// collected heap, so the latencies describe the protected data path
// rather than the collector's backlog.
func legitProbe(it *simIter, sys *core.System, victim topology.ASN, rng *rand.Rand) {
	topo := sys.Net.Topo
	var sources []topology.ASN
	for _, asn := range topo.ASNs() {
		if asn != victim {
			sources = append(sources, asn)
		}
	}
	rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
	if len(sources) > probeSources {
		sources = sources[:probeSources]
	}
	type probe struct {
		from topology.ASN
		pkt  *packet.IPv4
	}
	var probes []probe
	per := (probePackets + len(sources) - 1) / len(sources)
	for _, asn := range sources {
		pkts, err := (attack.Flow{Kind: attack.DDDoS, Agent: asn, Innocent: asn, Victim: victim}).
			Packets(topo, per, rng)
		if err != nil {
			continue // an AS without IPv4 space cannot send
		}
		for _, p := range pkts {
			probes = append(probes, probe{asn, p})
		}
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })

	runtime.GC()
	chunk := (len(probes) + probeChunks - 1) / probeChunks
	for i, pr := range probes {
		if i > 0 && i%chunk == 0 {
			time.Sleep(probeGap)
		}
		t := time.Now()
		d := sys.SendV4(pr.from, pr.pkt)
		it.probeLatUS = append(it.probeLatUS, float64(time.Since(t).Nanoseconds())/1e3)
		it.probeSent++
		if d.Delivered {
			it.probeOK++
		}
	}
}

// stopwatch times a workload's timed part in wall and CPU time,
// excluding pauses where the traced run measures something (a forced
// collection, a route count) that the untraced run does not do.
type stopwatch struct {
	wall0      time.Time
	cpu0       time.Duration
	pausedWall time.Duration
	pausedCPU  time.Duration
	pauseW     time.Time
	pauseC     time.Duration
}

func startStopwatch() *stopwatch { return &stopwatch{wall0: time.Now(), cpu0: cpuTime()} }

func (s *stopwatch) pause() { s.pauseW, s.pauseC = time.Now(), cpuTime() }
func (s *stopwatch) resume() {
	s.pausedWall += time.Since(s.pauseW)
	s.pausedCPU += cpuTime() - s.pauseC
}

// stop returns the wall and CPU time since start, minus pauses.
func (s *stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(s.wall0) - s.pausedWall, cpuTime() - s.cpu0 - s.pausedCPU
}
