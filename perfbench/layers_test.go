package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEveryInternalPackageHasALayer walks discs/internal and requires
// an explicit bucket for every package, so a new package is placed on
// purpose rather than falling into cpu.other_s.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	buckets := map[string]bool{}
	for _, l := range cpuLayers {
		buckets[l] = true
	}
	root := filepath.Join("..", "internal")
	seen := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		hasCode := false
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				hasCode = true
			}
		}
		if !hasCode {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		seen++
		l, ok := internalLayers[rel]
		if !ok {
			t.Errorf("discs/internal/%s has no entry in internalLayers", rel)
		} else if !buckets[l] {
			t.Errorf("discs/internal/%s maps to %q, not a cpu bucket", rel, l)
		}
		if got := layerOf([]string{"discs/internal/" + rel + ".F"}); got != l {
			t.Errorf("layerOf(discs/internal/%s.F) = %q, want %q", rel, got, l)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 20 {
		t.Fatalf("found only %d packages under %s", seen, root)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"discs/internal/bgp.(*Speaker).receive", "main.main"}, "bgp"},
		{[]string{"discs/internal/scenario/pulse.Run.func1"}, "scenario"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "discs/internal/bgp.(*Speaker).export"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcWriteBarrier2", "discs/internal/netsim.(*Simulator).Step"}, "gc"},
		{[]string{"crypto/internal/fips140/aes.encryptBlockAsm", "discs/internal/cmac.Sum29"}, "crypto"},
		{[]string{"vendor/golang.org/x/crypto/chacha20poly1305.(*chacha20poly1305).seal"}, "crypto"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall"}, "syscall"},
		{[]string{"runtime.futex", "runtime.futexwakeup"}, "syscall"},
		{[]string{"runtime.schedule"}, "other"},
		{[]string{"runtime.mapaccess2", "discs/internal/bgp.(*Speaker).decide"}, "bgp"},
		{[]string{"runtime.memmove", "container/heap.down", "discs/internal/parsim.(*lane).pop"}, "parsim"},
		{[]string{"slices.SortFunc[go.shape.[]discs/internal/bgp.Route]"}, "other"},
		{[]string{"main.main"}, "other"},
		{[]string{"discs/internal/nosuch.F"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestCPUProfileParse profiles a busy loop and checks the decoder
// recovers samples with stacks and CPU time.
func TestCPUProfileParse(t *testing.T) {
	var spin uint64
	busy, err := cpuProfile(func() error {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1e5; i++ {
				spin += uint64(i) * 2654435761
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for l, s := range busy {
		total += s
		found := false
		for _, b := range cpuLayers {
			found = found || b == l
		}
		if !found {
			t.Errorf("sample bucket %q is not in cpuLayers", l)
		}
	}
	if total < 0.1 {
		t.Fatalf("profile of a 300ms busy loop holds %.3fs of CPU (spin %d)", total, spin)
	}
}

// TestBenchmarkJSONMatchesCatalogues keeps BENCHMARK.json and the
// metric names the binary prints in step.
func TestBenchmarkJSONMatchesCatalogues(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, binary %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], binary %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per_layer %d: BENCHMARK.json %s [%s, %s], binary %s [%s, %s]", i, m.Name, m.Unit, m.Better, p.name, p.unit, p.better)
		}
	}
	for _, l := range cpuLayers {
		found := false
		for _, p := range perLayer {
			found = found || p.name == "cpu."+l+"_s"
		}
		if !found {
			t.Errorf("cpu bucket %q has no cpu.%s_s per-layer metric", l, l)
		}
	}
}
