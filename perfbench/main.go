// Command perfbench is the DISCS benchmark. It runs one named workload
// for a fixed time, checks the workload's outputs against references,
// and prints its metrics; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload paper-44k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end set (BENCHMARK.json
// "end_to_end"); with --trace 1 the run is measured twice, untraced and
// then traced, and the metrics are the per-layer set ("per_layer"),
// including trace.overhead_ratio. perfbench/run.sh builds and runs it
// from a checkout; README.md says what every metric means.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed runs use unless told otherwise;
	// recheckSeed is the second seed a claimed gain is re-checked on.
	// Both have exact output references in refs.go.
	defaultSeed = 1
	recheckSeed = 2

	// maxProcs caps GOMAXPROCS so results from hosts with more cores
	// stay comparable with the 2-core reference host.
	maxProcs = 2
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

// env is what a workload run is given.
type env struct {
	seed   int64
	budget time.Duration // measured time to aim for; at least one iteration always runs
	tr     *tracer       // nil for an untraced run
	smoke  bool          // reduced inputs for the unit tests; no exact references
	log    io.Writer     // human-readable progress
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// outcome is what a workload run reports.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string         // failed correctness checks, one line each
	outputs   map[string]int64 // deterministic outputs of the first iteration, if any
}

// check records a correctness failure when ok is false. A failed check
// counts as a failed operation; it never alters a timing.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{
	{"paper-44k", "BGP convergence, DISCS-Ad propagation and the parsim event core at full paper scale; the data plane does under 2% of the work", runPaper},
	{"campaign-300", "packet materialization, serial SendV4 delivery and incremental deploy in a 7-phase scenario campaign; BGP only in set-up", runCampaign},
	{"fleet-tls", "live 2-node fleet over loopback TCP+TLS: transport, TLS, the service inbound pool and the burst stamp/verify pipeline; no simulator", runFleet},
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"mpps", "Mpps"},
	{"delivery_ratio", "ratio"},
	{"latency_p50_us", "us"},
}

// host is the fingerprint stamped on every result.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-44k, campaign-300 or fleet-tls")
		seed    = flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (re-check claims on seed %d as well)", recheckSeed))
		seconds = flag.Int("seconds", 20, "measured time per run, in seconds")
		traceOn = flag.Int("trace", 0, "1: untraced then traced pass, report per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for the result and trace files")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, budget time.Duration, traced bool, outDir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	h := host{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: name, Seed: seed, Trace: traced,
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hb)

	e := &env{seed: seed, budget: budget, log: os.Stdout}
	var (
		res     = result{Metrics: map[string]metric{}}
		probs   []string
		tr      *tracer
		outputs map[string]int64
	)
	if !traced {
		o, err := w.run(e)
		if err != nil {
			return err
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{o.e2e[m.name], m.unit}
		}
		res.Attempted, res.Failed, probs, outputs = o.attempted, o.failed, o.problems, o.outputs
	} else {
		// The untraced pass is the baseline for trace.overhead_ratio;
		// each pass gets half the budget.
		e.budget = budget / 2
		base, err := w.run(e)
		if err != nil {
			return err
		}
		tr = newTracer()
		te := *e
		te.tr = tr
		var o *outcome
		busy, err := cpuProfile(func() error {
			var err error
			o, err = w.run(&te)
			return err
		})
		if err != nil {
			return err
		}
		layer := o.layer
		for _, l := range cpuLayers {
			layer["cpu."+l+"_s"] = busy[l]
		}
		layer["trace.overhead_ratio"] = o.e2e["run_s"] / base.e2e["run_s"]
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layer[m.name], m.unit}
		}
		res.Attempted = base.attempted + o.attempted
		res.Failed = base.failed + o.failed
		probs, outputs = append(base.problems, o.problems...), o.outputs
	}
	res.Correct = len(probs) == 0
	for _, p := range probs {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}

	record := struct {
		Host     host             `json:"host"`
		Result   result           `json:"result"`
		Problems []string         `json:"problems,omitempty"`
		Outputs  map[string]int64 `json:"outputs,omitempty"`
		Spans    []span           `json:"spans,omitempty"`
	}{h, res, probs, outputs, nil}
	if tr != nil {
		record.Spans = tr.spans
	}
	file := fmt.Sprintf("%s-seed%d-trace0.json", name, seed)
	if traced {
		file = fmt.Sprintf("%s-seed%d-trace1.json", name, seed)
	}
	if err := writeJSON(outDir, file, record); err != nil {
		return fmt.Errorf("writing %s: %w", file, err)
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
