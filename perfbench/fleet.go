package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discs/internal/core"
	"discs/internal/obs"
	"discs/internal/packet"
	"discs/internal/service"
	"discs/internal/transport"
)

// fleetScale sizes the fleet-tls workload; smoke runs shrink it.
type fleetScale struct {
	boots     int // fleets booted in turn, each carrying an equal share of the traffic
	repTrains int // trains per closed-loop repetition
}

// fleetShare is the measured time each fleet of a full-size run gets.
// A fleet's throughput depends on state fixed when it boots (which
// thread serves which connection, socket buffer growth) and swings by
// ~10% from one fleet to the next, so a run boots one fleet per share
// (16 in 30 s) and reports medians over all of them. A share still
// leaves each open loop over 1,000 trains, enough for its p99.
const fleetShare = 1875 * time.Millisecond

func fleetConfig(smoke bool, budget time.Duration) fleetScale {
	if smoke {
		return fleetScale{boots: 1, repTrains: 20}
	}
	return fleetScale{boots: max(1, int(budget/fleetShare)), repTrains: 400}
}

const (
	trainLen = 256 // packets per SendPacketBatch train
	// Per-packet calls after every train: legitimate SendPacket,
	// spoofed SendPacket (DP drops it at the source) and raw InjectRaw
	// (CDP drops it at the victim).
	legitPer, spoofPer, rawPer = 4, 2, 2

	openRate    = 250_000         // offered legitimate packets/s in the open-loop phase
	closedShare = 0.4             // share of the budget spent in the closed-loop phase
	p99Window   = 2 * time.Second // open-loop span one p99 is taken over
	drainQuiet  = 250 * time.Millisecond
	drainMax    = 3 * time.Second // a drain ends after drainQuiet without arrivals, or drainMax
	quietPolls  = 100
)

// fleetCtrlMetrics are the control-plane counters reported per layer.
var fleetCtrlMetrics = []string{core.MetricCtrlMsgsSent, core.MetricCtrlHandshakesInitiated, core.MetricCtrlRetries, core.MetricCtrlBytesSealed}

const (
	fleetSrc, fleetVictim = 0, 1
	readyTimeout          = 15 * time.Second
	backpressurePause     = 100 * time.Microsecond
)

// trafficGen is the seeded packet mix and the generator's tallies.
type trafficGen struct {
	src     *service.Node
	dst     string
	trains  [][]*packet.IPv4
	legit   []*packet.IPv4
	spoofed []*packet.IPv4
	raw     []*packet.IPv4
	next    int

	legitAccepted, rawAccepted int
	legitDropped               int // legitimate packets the source's own router dropped
	spoofAccepted, spoofSent   int
	retries                    int // transport backpressure refusals, each retried
	tr                         *tracer
}

func newTraffic(f *service.Fleet, seed int64, tr *tracer) *trafficGen {
	rng := rand.New(rand.NewSource(seed))
	mk := func(srcNode int, srcHost, dstHost byte) *packet.IPv4 {
		payload := make([]byte, 16+rng.Intn(49))
		rng.Read(payload)
		return &packet.IPv4{
			TTL: 64, Protocol: 17,
			Src:     service.FleetAddr(srcNode, srcHost),
			Dst:     service.FleetAddr(fleetVictim, dstHost),
			Payload: payload,
		}
	}
	host := func(base int) byte { return byte(base + rng.Intn(200)) }
	t := &trafficGen{src: f.Nodes[fleetSrc], dst: f.Nodes[fleetVictim].Name(), tr: tr}
	// A handful of distinct trains, cycled: outbound stamping
	// overwrites any earlier mark, so re-sending a packet is safe.
	for k := 0; k < 8; k++ {
		train := make([]*packet.IPv4, trainLen)
		for i := range train {
			train[i] = mk(fleetSrc, host(20), host(10))
		}
		t.trains = append(t.trains, train)
	}
	for k := 0; k < 64; k++ {
		t.legit = append(t.legit, mk(fleetSrc, host(20), host(10)))
		// Spoofed packets claim the victim's own space; the source's DP
		// filter drops them.
		t.spoofed = append(t.spoofed, mk(fleetVictim, host(30), host(10)))
		// Raw packets claim the source's space but skip its border
		// router, so they carry no mark; the victim's CDP drops them.
		t.raw = append(t.raw, mk(fleetSrc, host(40), host(10)))
	}
	return t
}

// sendTrain pushes one train and its per-packet share, retrying every
// transport refusal after a short pause.
func (t *trafficGen) sendTrain() {
	k := t.next
	t.next++
	train := t.trains[k%len(t.trains)]
	for {
		t.tr.begin("service.batch_call", false)
		_, sent := t.src.SendPacketBatch(t.dst, train)
		t.tr.end()
		if sent == len(train) {
			t.legitAccepted += sent
			break
		}
		t.legitAccepted += sent // a partially accepted train is not re-sent in full
		if sent > 0 {
			train = train[sent:]
		}
		t.retries++
		time.Sleep(backpressurePause)
	}
	for i := 0; i < legitPer; i++ {
		p := t.legit[(k*legitPer+i)%len(t.legit)]
		for {
			t.tr.begin("service.packet_call", false)
			v, ok := t.src.SendPacket(t.dst, p)
			t.tr.end()
			if ok {
				t.legitAccepted++
				break
			}
			if v.Dropped() {
				t.legitDropped++
				break
			}
			t.retries++
			time.Sleep(backpressurePause)
		}
	}
	for i := 0; i < spoofPer; i++ {
		t.tr.begin("service.packet_call", false)
		v, ok := t.src.SendPacket(t.dst, t.spoofed[(k*spoofPer+i)%len(t.spoofed)])
		t.tr.end()
		t.spoofSent++
		if ok || !v.Dropped() {
			t.spoofAccepted++
		}
	}
	for i := 0; i < rawPer; i++ {
		p := t.raw[(k*rawPer+i)%len(t.raw)]
		for {
			t.tr.begin("service.inject_call", false)
			ok := t.src.InjectRaw(t.dst, p)
			t.tr.end()
			if ok {
				break
			}
			t.retries++
			time.Sleep(backpressurePause)
		}
		t.rawAccepted++
	}
}

func (t *trafficGen) accepted() int { return t.legitAccepted + t.rawAccepted }

// victimCounters are the victim node's data-plane counters, read
// directly (a full registry snapshot per poll would dominate).
type victimCounters struct {
	delivered, dropped, malformed *obs.Counter
}

func newVictimCounters(n *service.Node) victimCounters {
	scope := n.Registry().Scope(fmt.Sprintf("as%d.", n.AS()))
	return victimCounters{
		delivered: scope.Counter(service.MetricNodeRxDelivered),
		dropped:   scope.Counter(service.MetricNodeRxDropped),
		malformed: scope.Counter(service.MetricNodeRxMalformed),
	}
}

// arrived counts packets the victim reached a verdict on.
func (v victimCounters) arrived() uint64 {
	return v.delivered.Value() + v.dropped.Value() + v.malformed.Value()
}

// drain waits until the victim has a verdict for want packets, or
// arrivals stop for drainQuiet and quietPolls polls, or drainMax
// passes; it returns how many never arrived. Counting polls keeps a
// stretch in which the host did not run this process from passing as
// quiet: packets still in flight would be counted lost, then arrive.
func drain(v victimCounters, want uint64) uint64 {
	deadline := time.Now().Add(drainMax)
	last, lastChange, still := v.arrived(), time.Now(), 0
	for last < want {
		now := time.Now()
		if now.After(deadline) || (now.Sub(lastChange) > drainQuiet && still >= quietPolls) {
			return want - last
		}
		time.Sleep(100 * time.Microsecond)
		if a := v.arrived(); a != last {
			last, lastChange, still = a, time.Now(), 0
		} else {
			still++
		}
	}
	return 0
}

// fleetIdentitySeed fixes the fleet's node identities, and with them
// the peering-delay jitter the nodes draw at start, so set-up does the
// same work for every workload seed.
const fleetIdentitySeed = 1

// bootFleet brings up a protected 2-node TLS fleet: boot, peering and
// key negotiation, then DP+CDP protection of the victim's prefix.
func bootFleet(tr *tracer) (*service.Fleet, error) {
	tr.begin("service.boot", false)
	f, err := service.NewFleet(service.FleetOptions{N: 2, TLS: true, BaseSeed: fleetIdentitySeed})
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("service.peering", false)
	err = f.WaitReady(readyTimeout)
	tr.end()
	if err == nil {
		tr.begin("service.protect", false)
		err = f.Protect(fleetVictim, readyTimeout)
		tr.end()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	// Let the invocation grace interval (50ms in a loopback fleet)
	// lapse so CDP verification is strict.
	time.Sleep(100 * time.Millisecond)
	return f, nil
}

// fleetTally accumulates the measurements of every fleet in a run.
type fleetTally struct {
	setups, runs, cpus, rates []float64
	lat, late                 []float64
	windowP99                 []float64 // p99 of each open-loop window
	lost                      uint64
	accepted                  int
	trains, retries           int
	ctrl                      map[string]float64 // ctrl.* totals over each fleet's lifetime
}

// runFleet is the fleet-tls workload: live 2-node fleets over loopback
// TCP+TLS, booted sc.boots times. Each fleet carries an equal share of
// the traffic, so connection-level state (socket buffers, scheduling)
// is averaged rather than fixed for a whole run. On each, a
// closed-loop phase pushes trains as fast as the transport accepts
// them (mpps, run_s); then an open-loop phase offers a fixed rate
// below saturation and times each train from its due time until the
// victim's node.rx_delivered covers it (latencies).
func runFleet(e *env) (*outcome, error) {
	sc := fleetConfig(e.smoke, e.budget)
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	t := fleetTally{ctrl: map[string]float64{}}
	share := e.budget / time.Duration(sc.boots)
	if !e.smoke {
		// The first fleet a process boots runs ~20% slower than the
		// rest (cold caches, a heap still growing), so an untraced
		// warm-up fleet carries one share first; only its correctness
		// checks count.
		f, err := bootFleet(nil)
		if err != nil {
			return nil, err
		}
		warm := *e
		warm.tr = nil
		fleetTraffic(&warm, sc, f, -1, share, o, &fleetTally{ctrl: map[string]float64{}})
		f.Close()
	}
	for i := 0; i < sc.boots; i++ {
		t0 := time.Now()
		e.tr.begin("setup", false)
		f, err := bootFleet(e.tr)
		e.tr.end()
		if err != nil {
			return nil, err
		}
		t.setups = append(t.setups, time.Since(t0).Seconds())
		fleetTraffic(e, sc, f, int64(i), share, o, &t)
		f.Close()
	}

	sort.Float64s(t.lat)
	if p, ok := tailPercentile(len(t.lat) / len(t.windowP99)); !ok || p < 99 {
		o.check(false, "%d latency samples in %d windows cannot support a p99 per window (highest supported p%g)", len(t.lat), len(t.windowP99), p)
	}
	o.e2e["setup_s"] = median(t.setups)
	o.e2e["run_s"] = median(t.runs)
	o.e2e["cpu_s"] = median(t.cpus)
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.e2e["mpps"] = median(t.rates)
	o.e2e["delivery_ratio"] = 1 - float64(t.lost)/float64(t.accepted)
	o.e2e["latency_p50_us"] = percentile(t.lat, 50)
	sort.Float64s(t.late)
	e.logf("fleet-tls: %d boots (median %.3fs), %d closed-loop reps (median %.3fs, %.3f Mpps), %d open-loop trains (p50 %.0fus, p99 %.0fus, generator late p99 %.0fus), %d accepted, %d lost, %d backpressure retries",
		len(t.setups), o.e2e["setup_s"], len(t.runs), o.e2e["run_s"], o.e2e["mpps"], len(t.lat), o.e2e["latency_p50_us"], median(t.windowP99), percentile(t.late, 99), t.accepted, t.lost, t.retries)
	// Each failed check is a failed operation. Lost packets are not:
	// the victim sheds them from a full inbound queue at random moments
	// of the saturating phase, so their count is not reproducible from
	// run to run. They are measured instead, in delivery_ratio and
	// fleet.lost.
	o.attempted = t.accepted
	o.failed = len(o.problems)
	if e.tr != nil {
		fleetLayers(o.layer, e.tr, &t)
	}
	return o, nil
}

// fleetTraffic drives one fleet for its share of the budget and checks
// its per-class accounting.
func fleetTraffic(e *env, sc fleetScale, f *service.Fleet, part int64, share time.Duration, o *outcome, t *fleetTally) {
	tr := e.tr
	src, victim := f.Nodes[fleetSrc], f.Nodes[fleetVictim]
	if tr != nil {
		tr.counters = func() map[string]uint64 {
			out := src.Stats().Counters
			for k, v := range victim.Stats().Counters {
				out[k] += v
			}
			return out
		}
	}
	vc := newVictimCounters(victim)
	traffic := newTraffic(f, e.seed*1000+part, tr)
	snap0 := victim.Stats()

	// Closed loop: fixed-volume repetitions, each drained before the
	// next, until the phase's share of the budget is spent.
	tr.begin("fleet.closed", true)
	var lost uint64
	closedEnd := time.Now().Add(time.Duration(float64(share) * closedShare))
	rates0 := len(t.rates)
	for reps := 0; reps == 0 || time.Now().Before(closedEnd); reps++ {
		base, del0 := vc.arrived(), vc.delivered.Value()
		acc0 := traffic.accepted()
		sw := startStopwatch()
		for k := 0; k < sc.repTrains; k++ {
			traffic.sendTrain()
		}
		lost += drain(vc, base+uint64(traffic.accepted()-acc0))
		wall, cpu := sw.stop()
		t.runs = append(t.runs, wall.Seconds())
		t.cpus = append(t.cpus, cpu.Seconds())
		t.rates = append(t.rates, float64(vc.delivered.Value()-del0)/wall.Seconds()/1e6)
	}
	tr.end()

	closedLost := lost

	// Open loop: trains due every trainLen/openRate seconds.
	tr.begin("fleet.open", true)
	lat, late, openLost := openLoop(traffic, vc, time.Duration(float64(share)*(1-closedShare)))
	lost += openLost
	tr.end()
	t.lat = append(t.lat, lat...)
	t.windowP99 = append(t.windowP99, windowP99(lat)...)
	t.late = append(t.late, late...)
	t.lost += lost
	t.accepted += traffic.accepted()
	t.trains += traffic.next
	t.retries += traffic.retries

	// Per-class accounting. The victim's CDP verifier is the only thing
	// that drops there, and only a verified mark gets a packet
	// delivered — so no raw or spoofed packet was delivered exactly
	// when these balance.
	d := victim.Stats().Delta(snap0)
	scope := fmt.Sprintf("as%d.", victim.AS())
	delivered, dropped := d.Get(scope+service.MetricNodeRxDelivered), d.Get(scope+service.MetricNodeRxDropped)
	verified, verifyFail := d.Get(scope+core.MetricRouterInVerified), d.Get(scope+core.MetricRouterInVerifyFail)
	e.logf("fleet %d: %d closed-loop reps (median %.3f Mpps), lost %d in the closed loop and %d in the open loop, %d inbound frames overflowed",
		part, len(t.rates)-rates0, median(t.rates[rates0:]), closedLost, openLost, d.Get(scope+service.MetricNodeRxOverflow))
	// The control plane works mostly while the fleet boots, before any
	// span has counters, so its counts are whole-lifetime totals.
	for _, n := range f.Nodes {
		snap := n.Stats()
		for _, m := range fleetCtrlMetrics {
			t.ctrl[m] += float64(snap.Sum(m))
		}
	}
	o.check(traffic.legitDropped == 0, "fleet %d: source router dropped %d legitimate packets", part, traffic.legitDropped)
	o.check(traffic.spoofAccepted == 0, "fleet %d: %d of %d spoofed packets left the source", part, traffic.spoofAccepted, traffic.spoofSent)
	o.check(delivered == verified, "fleet %d: victim delivered %d packets but verified %d marks", part, delivered, verified)
	o.check(dropped == verifyFail, "fleet %d: victim dropped %d packets but failed %d CDP verifications", part, dropped, verifyFail)
	o.check(verified <= uint64(traffic.legitAccepted), "fleet %d: victim verified %d packets, only %d legitimate sent", part, verified, traffic.legitAccepted)
	if lost == 0 {
		o.check(verifyFail == uint64(traffic.rawAccepted), "fleet %d: victim CDP drops %d != raw packets injected %d", part, verifyFail, traffic.rawAccepted)
		o.check(delivered == uint64(traffic.legitAccepted), "fleet %d: victim delivered %d != legitimate packets accepted %d", part, delivered, traffic.legitAccepted)
	} else {
		// Lost packets never reach the verifier, so each class may fall
		// short by at most the loss, and together exactly by it.
		o.check(verifyFail <= uint64(traffic.rawAccepted), "fleet %d: victim CDP drops %d > raw packets injected %d", part, verifyFail, traffic.rawAccepted)
		o.check(verified+verifyFail+lost == uint64(traffic.accepted()), "fleet %d: verified %d + CDP drops %d + lost %d != accepted %d", part, verified, verifyFail, lost, traffic.accepted())
	}
}

// openLoop offers trains at openRate for dur. Each train's latency
// runs from when it was due (not when the generator got to it) until
// the victim's delivered count covers every legitimate packet sent
// through that train. A train still uncovered when the final drain
// gives up is recorded at the time waited, a lower bound.
func openLoop(t *trafficGen, vc victimCounters, dur time.Duration) (lat, late []float64, lost uint64) {
	interval := time.Duration(float64(trainLen) / openRate * float64(time.Second))
	n := int(dur / interval)
	if n < 1 {
		n = 1
	}
	due := make([]time.Time, n)
	cover := make([]uint64, n) // delivered count that covers train k
	lat = make([]float64, n)
	var sent atomic.Int64 // trains whose due/cover entries are published
	stop := make(chan struct{})

	base, del0, acc0 := vc.arrived(), vc.delivered.Value(), t.accepted()
	legit0 := t.legitAccepted
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := 0
		for next < n {
			published := int(sent.Load())
			d := vc.delivered.Value()
			now := time.Now()
			for next < published && d >= cover[next] {
				lat[next] = float64(now.Sub(due[next]).Nanoseconds()) / 1e3
				next++
			}
			select {
			case <-stop:
				for ; next < published; next++ {
					lat[next] = float64(now.Sub(due[next]).Nanoseconds()) / 1e3
				}
				return
			default:
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	start := time.Now()
	for k := 0; k < n; k++ {
		due[k] = start.Add(time.Duration(k) * interval)
		if w := time.Until(due[k]); w > 0 {
			time.Sleep(w)
		}
		late = append(late, float64(time.Since(due[k]).Nanoseconds())/1e3)
		before := t.legitAccepted
		t.sendTrain()
		// Cover the train itself; the per-packet share sent after it
		// belongs to the next train's count.
		cover[k] = del0 + uint64(before-legit0) + uint64(trainLen)
		sent.Store(int64(k + 1))
	}
	lost = drain(vc, base+uint64(t.accepted()-acc0))
	close(stop)
	wg.Wait()
	return lat, late, lost
}

// windowP99 splits one open loop's train latencies (in due order) into
// windows of p99Window and returns each window's p99; a short tail
// joins the last window. The median of these is the reported p99: a
// single multi-millisecond stall (a collector assist on the generator,
// a descheduled thread) lands in one window instead of moving the
// whole run's tail.
func windowP99(lat []float64) []float64 {
	per := int(p99Window.Seconds() * openRate / float64(trainLen))
	if per < 1 || per > len(lat) {
		per = len(lat)
	}
	var out []float64
	for i := 0; i < len(lat); i += per {
		end := i + per
		if len(lat)-end < per {
			end = len(lat)
		}
		w := append([]float64(nil), lat[i:end]...)
		sort.Float64s(w)
		out = append(out, percentile(w, 99))
		if end == len(lat) {
			break
		}
	}
	return out
}

// fleetLayers fills the per-layer metrics of a traced fleet run; the
// counter metrics sum the deltas over every fleet's traffic phases.
func fleetLayers(l map[string]float64, tr *tracer, t *fleetTally) {
	for _, n := range []string{"service.boot", "service.peering", "service.protect"} {
		if d, c := tr.total(n); c > 0 {
			l[n+"_s"] = d.Seconds() / float64(c)
		}
	}
	batch, _ := tr.total("service.batch_call")
	perPkt, calls := tr.total("service.packet_call")
	if t.trains > 0 {
		l["service.batch_call_ns"] = float64(batch.Nanoseconds()) / float64(t.trains*trainLen)
	}
	if calls > 0 {
		l["service.packet_call_ns"] = float64(perPkt.Nanoseconds()) / float64(calls)
	}
	var phases []span
	for _, s := range tr.spans {
		if s.Name == "fleet.closed" || s.Name == "fleet.open" {
			phases = append(phases, s)
		}
	}
	sum := func(f func(span) float64) float64 {
		v := 0.0
		for _, s := range phases {
			v += f(s)
		}
		return v
	}
	for _, m := range []string{core.MetricRouterOutStamped, core.MetricRouterInVerified, core.MetricRouterInVerifyFail, core.MetricRouterInDropped, core.MetricRouterMACsComputed,
		service.MetricNodeRxDelivered, service.MetricNodeRxDropped, service.MetricNodeRxOverflow} {
		l[m] = sum(func(s span) float64 { return sumDelta(s, m) })
	}
	for m, v := range t.ctrl {
		l[m] = v
	}
	if pkts := sum(func(s span) float64 {
		return sumDelta(s, core.MetricRouterInProcessed) + sumDelta(s, core.MetricRouterOutProcessed)
	}); pkts > 0 {
		l["router.macs_per_pkt"] = l[core.MetricRouterMACsComputed] / pkts
	}
	for _, m := range []string{transport.MetricFramesSent, transport.MetricFramesDropped, transport.MetricRedials} {
		l[m] = sum(func(s span) float64 { return peerSum(s, m) })
	}
	if f := l[transport.MetricFramesSent]; f > 0 {
		l["transport.pkts_per_frame"] = float64(t.accepted) / f
	}
	l["fleet.lost"] = float64(t.lost)
	l["latency.p99_us"] = median(t.windowP99)
	l["latency.samples"] = float64(len(t.lat))
	l["fleet.gen_late_p99_us"] = percentile(t.late, 99)
	l["runtime.gc_cycles"] = sum(func(s span) float64 { return s.delta("runtime.gc_cycles") })
	l["runtime.alloc_mb"] = sum(func(s span) float64 { return s.delta("runtime.alloc_bytes") }) / (1 << 20)
	l["runtime.gc_pause_s"] = sum(func(s span) float64 { return s.delta("runtime.gc_pause_ns") }) / 1e9
}

// peerSum sums a span's deltas of a transport counter over every peer;
// the transport counts per peer only ("<base>.peer.<name>").
func peerSum(s span, base string) float64 {
	var t int64
	for k, v := range s.Deltas {
		if strings.Contains(k, base+".peer.") {
			t += v
		}
	}
	return float64(t)
}
