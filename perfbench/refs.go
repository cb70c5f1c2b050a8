package main

// Reference outputs of the simulator workloads, recorded from the
// program this benchmark was defined against. The world and the
// campaign's shape are fixed, so some outputs do not depend on the
// workload seed: every run is held to those exactly. The traffic
// tallies do depend on it, and are held exactly at the default and
// re-check seeds; on other seeds they are checked by each workload's
// invariants and against the run's own first iteration (the simulator
// is deterministic).

// seedlessRefs holds the outputs every seed must reproduce.
var seedlessRefs = map[string]map[string]int64{
	"paper-44k": {
		"after.sent":            2000,
		"before.delivered":      2000,
		"before.sent":           2000,
		"bgp.routes":            440360,
		"netsim.events":         1887039,
		"parsim.epochs":         1555,
		"router.in_dropped":     0,
		"router.in_verified":    0,
		"router.in_verify_fail": 0,
		"router.out_stamped":    0,
	},
	"campaign-300": {
		"dataset.records":              2009,
		"phase0.legit.delivered":       1800,
		"phase0.legit.dropped":         0,
		"phase0.legit.false_positives": 0,
		"phase0.legit.sent":            1800,
		"phase1.onset.delivered":       200000,
		"phase1.onset.dropped":         0,
		"phase1.onset.sent":            200000,
		"phase2.invoke.delivered":      0,
		"phase2.invoke.dropped":        0,
		"phase2.invoke.sent":           0,
		"phase3.rotate.sent":           200000,
		"phase4.carpet.sent":           200000,
		"phase5.deploy.delivered":      0,
		"phase5.deploy.dropped":        0,
		"phase5.deploy.sent":           0,
		"phase6.sustain.sent":          200000,
		"ttm.first_attack_ns":          61800881141,
		"ttm.invoked_ns":               63550881141,
	},
}

// seedRefs holds the seed-dependent outputs at defaultSeed and
// recheckSeed.
var seedRefs = map[string]map[int64]map[string]int64{
	"paper-44k": {
		defaultSeed: {
			"after.delivered":    1350,
			"after.dropped":      650,
			"router.out_dropped": 650,
		},
		recheckSeed: {
			"after.delivered":    1480,
			"after.dropped":      520,
			"router.out_dropped": 520,
		},
	},
	"campaign-300": {
		defaultSeed: {
			"phase3.rotate.delivered":  124000,
			"phase3.rotate.dropped":    76000,
			"phase4.carpet.delivered":  84800,
			"phase4.carpet.dropped":    115200,
			"phase6.sustain.delivered": 51200,
			"phase6.sustain.dropped":   148800,
			"ttm.recovered_ns":         103168834724,
		},
		recheckSeed: {
			"phase3.rotate.delivered":  131200,
			"phase3.rotate.dropped":    68800,
			"phase4.carpet.delivered":  69600,
			"phase4.carpet.dropped":    130400,
			"phase6.sustain.delivered": 44800,
			"phase6.sustain.dropped":   155200,
			"ttm.recovered_ns":         103168834724,
		},
	},
}

// refFor returns the outputs this run must reproduce exactly, and
// whether they include the seed-dependent tallies. Smoke runs use
// reduced inputs and have none.
func refFor(workload string, e *env) (map[string]int64, bool) {
	if e.smoke {
		return nil, false
	}
	want := map[string]int64{}
	for k, v := range seedlessRefs[workload] {
		want[k] = v
	}
	per, ok := seedRefs[workload][e.seed]
	for k, v := range per {
		want[k] = v
	}
	return want, ok
}
