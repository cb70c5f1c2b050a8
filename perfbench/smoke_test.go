package main

import (
	"io"
	"testing"
	"time"
)

// TestWorkloadSmoke runs every workload on reduced inputs, once
// untraced and once traced, and requires clean correctness checks, a
// value for every end-to-end metric, and the per-layer numbers each
// workload exists to produce.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long workload runs")
	}
	wantLayer := map[string][]string{
		"paper-44k":    {"bgp.converge_s", "core.deploy_s", "attack.paced_s", "core.invoke_s", "netsim.events", "parsim.epochs", "bgp.routes", "bgp.bytes_per_route", "bgp.converge_allocs", "ctrl.msgs_sent", "runtime.alloc_mb", "latency.p99_us"},
		"campaign-300": {"bgp.converge_s", "scenario.run_s", "scenario.packets_sent", "scenario.allocs_per_pkt", "router.in_verify_fail", "router.macs_computed"},
		"fleet-tls":    {"service.boot_s", "service.peering_s", "ctrl.handshakes_initiated", "service.protect_s", "service.batch_call_ns", "service.packet_call_ns", "node.rx_delivered", "router.in_verify_fail", "transport.frames_sent", "transport.pkts_per_frame", "latency.p99_us", "latency.samples"},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			budget := time.Second
			if w.name == "fleet-tls" {
				budget = 5 * time.Second // the open-loop half must collect enough trains for a p99
			}
			e := &env{seed: defaultSeed, budget: budget, smoke: true, log: io.Discard}
			o, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range o.problems {
				t.Errorf("check failed: %s", p)
			}
			if o.attempted < 1 {
				t.Errorf("attempted %d", o.attempted)
			}
			for _, m := range endToEnd {
				if o.e2e[m.name] <= 0 {
					t.Errorf("%s = %g, want > 0", m.name, o.e2e[m.name])
				}
			}

			e.tr = newTracer()
			o, err = w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range o.problems {
				t.Errorf("traced check failed: %s", p)
			}
			for _, name := range wantLayer[w.name] {
				if o.layer[name] <= 0 {
					t.Errorf("traced %s = %g, want > 0", name, o.layer[name])
				}
			}
			if len(e.tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for _, s := range e.tr.spans {
				if s.End < s.Start {
					t.Errorf("span %s never closed", s.Name)
				}
			}
		})
	}
}
