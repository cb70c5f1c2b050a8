package main

import "strings"

// internalLayers maps every package under discs/internal to the cpu.*
// bucket its samples count toward. Packages the benchmark
// never runs still get an explicit entry, so a new package cannot slip
// into cpu.other_s unnoticed (layers_test.go walks the tree).
var internalLayers = map[string]string{
	"attack":         "attack",
	"baseline":       "other", // alternative defenses; no workload runs them
	"benchgate":      "other",
	"bgp":            "bgp",
	"cli":            "other",
	"cmac":           "cmac",
	"core":           "core",
	"cost":           "other",
	"eval":           "scenario", // §VI accumulator behind scenario deploy phases
	"flowexport":     "flowexport",
	"lpm":            "lpm",
	"netsim":         "netsim",
	"obs":            "obs",
	"packet":         "packet",
	"parsim":         "parsim",
	"qos":            "core", // verdict → queue class, a data-plane decision
	"scenario":       "scenario",
	"scenario/pulse": "scenario",
	"securechan":     "securechan",
	"service":        "service",
	"snapcodec":      "other",
	"snapshot":       "other",
	"topology":       "topology",
	"transport":      "transport",
	"wire":           "netsim", // hop-by-hop link model inside the simulator
}

// cpuLayers lists the cpu.<layer>_s buckets in report order.
var cpuLayers = []string{
	"bgp", "netsim", "parsim", "topology",
	"core", "lpm", "cmac", "packet",
	"attack", "scenario", "flowexport", "securechan",
	"service", "transport", "crypto", "syscall", "obs",
	"gc", "other",
}

// gcFrames mark a sample as allocation or collector work wherever they
// sit on the stack: memory zeroing under mallocgc is allocation cost,
// not the caller's.
var gcFrames = map[string]bool{
	"runtime.mallocgc":            true,
	"runtime.gcBgMarkWorker":      true,
	"runtime.gcAssistAlloc":       true,
	"runtime.bgsweep":             true,
	"runtime.bgscavenge":          true,
	"runtime.wbBufFlush":          true,
	"runtime.bulkBarrierPreWrite": true,
	"runtime.gcWriteBarrier":      true,
	"runtime.sweepone":            true,
	"runtime.markroot":            true,
	"runtime.scanobject":          true,
}

// syscallRuntimeLeaves are runtime leaf functions that are a system
// call or sleep in the kernel on the program's behalf.
var syscallRuntimeLeaves = map[string]bool{
	"runtime.futex":     true,
	"runtime.epollwait": true,
	"runtime.epollctl":  true,
	"runtime.usleep":    true,
	"runtime.write1":    true,
	"runtime.read":      true,
	"runtime.madvise":   true,
	"runtime.mmap":      true,
	"runtime.munmap":    true,
	"runtime.osyield":   true,
}

// funcPackage returns the import path of a profiled function name,
// e.g. "discs/internal/bgp" for "discs/internal/bgp.(*Speaker).receive".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation lists hold their own dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf assigns one CPU sample (stack leaf first) to its bucket:
//   - allocation or collector work anywhere on the stack: gc;
//   - a crypto or system-call leaf: crypto or syscall;
//   - otherwise the nearest discs/internal frame's layer, so map
//     lookups, copies and sorts a layer calls into are its own cost;
//   - and with no discs/internal frame at all: other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] || strings.HasPrefix(fn, "runtime.gcDrain") || strings.HasPrefix(fn, "runtime.gcWriteBarrier") {
			return "gc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	switch pkg := funcPackage(leaf); {
	case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/") ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/crypto/"):
		return "crypto"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" ||
		strings.HasPrefix(pkg, "internal/syscall/") || pkg == "net" || pkg == "os":
		return "syscall"
	case pkg == "runtime" && syscallRuntimeLeaves[leaf]:
		return "syscall"
	}
	for _, fn := range stack {
		if pkg := funcPackage(fn); strings.HasPrefix(pkg, "discs/internal/") {
			if l, ok := internalLayers[strings.TrimPrefix(pkg, "discs/internal/")]; ok {
				return l
			}
			return "other"
		}
	}
	return "other"
}

// bucketCPU sums sample CPU time per layer, in seconds.
func bucketCPU(samples []cpuSample) map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}
