package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesProgram keeps BENCHMARK.json and the tables in
// this package from drifting apart: same workloads, same gated
// end-to-end metrics with the same units, directions and bounds.
func TestContractMatchesProgram(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, c.Workloads[i].Name, w.name)
		}
	}
	gated := endToEnd[:gatedEndToEnd]
	if len(c.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json gates %d end-to-end metrics, the program %d", len(c.EndToEnd), len(gated))
	}
	for i, d := range gated {
		got := c.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v in BENCHMARK.json, %+v in the program", i, got, d)
		}
	}
}

// TestSmoke runs every workload end to end at smoke scale — key counts
// cut 16×, 100 ms slices, one set-up — with tracing on, and checks that
// every metric BENCHMARK.json declares comes out finite and that no
// oracle fires. It asserts nothing about speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six loopback stacks")
	}
	con := loadContract(t)
	c := config{seed: 42, clients: 2, scale: 16, setups: 1, slice: 100 * time.Millisecond,
		traceOut: filepath.Join(t.TempDir(), "spans.jsonl")}

	led, err := ledger(c.scale)
	if err != nil {
		t.Fatal(err)
	}
	shared := merge(map[string]value{}, led, harnessValues(c.clients))
	// Starting a slice's goroutines allocates a handful of objects per
	// slice; per operation the loop must allocate nothing.
	if v := shared["harness.allocs_per_op"].Value; v > 1e-3 {
		t.Errorf("the closed loop itself allocates %.4f times per operation, want 0", v)
	}

	for i := range workloads {
		w := &workloads[i]
		wr, ph, err := runEndToEnd(w, c)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := runLayers(w, c, ph)
		if err != nil {
			t.Fatal(err)
		}
		if wr.Failed != 0 || lr.Failed != 0 {
			t.Errorf("%s: %d timed and %d traced operations failed their oracle", w.name, wr.Failed, lr.Failed)
		}
		if wr.Attempted == 0 || lr.Attempted == 0 {
			t.Errorf("%s: no operations completed", w.name)
		}
		for _, d := range con.EndToEnd {
			v, ok := wr.EndToEnd[d.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive finite value", w.name, d.Name, v.Value, ok)
			}
		}
		if v := wr.EndToEnd["fail_ratio"].Value; v != 0 {
			t.Errorf("%s: fail_ratio = %v", w.name, v)
		}
		all := merge(map[string]value{}, lr.PerLayer, shared)
		for _, d := range con.PerLayer {
			v, ok := all[d.Name]
			if !ok && isTracedName(d.Name) {
				continue // a layer this workload never enters
			}
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.name, d.Name, v.Value, ok)
			}
		}
		for name := range all {
			if !declared(con, name) {
				t.Errorf("%s: per-layer metric %s is reported but not declared in BENCHMARK.json", w.name, name)
			}
		}
		checkDeterministicOutcomes(t, w.name, wr, lr)
	}

	spans, err := os.ReadFile(c.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !strings.Contains(string(spans), `"workload":"`+w.name+`"`) {
			t.Errorf("span file has no spans of %s", w.name)
		}
	}
}

func isTracedName(name string) bool {
	for _, n := range tracedNames {
		if n == name {
			return true
		}
	}
	return false
}

func declared(con contract, name string) bool {
	for _, d := range con.PerLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}

// checkDeterministicOutcomes asserts the outcomes that hold exactly by
// construction, and that the layers a workload must exercise were seen
// by the trace.
func checkDeterministicOutcomes(t *testing.T, name string, wr, lr *workloadResult) {
	t.Helper()
	want := map[string]map[string]float64{
		"l1_obj":      {"origin_calls_per_op": 0, "core.hit_ratio": 1, "core.l1_self_per_op": 1, "rep.keygen_per_op": 1},
		"l1_stream":   {"origin_calls_per_op": 0, "core.hit_ratio": 1, "core.l1_self_per_op": 1},
		"l2_shared":   {"origin_calls_per_op": 0, "core.hit_ratio": 0, "core.tier_hits_per_op": 1, "cluster.remote.get_per_op": 1, "wscached.tier.get_per_op": 1},
		"server_hit":  {"origin_calls_per_op": 0, "server.cache.hit_ratio": 1, "server.serve_per_op": 1, "transport.roundtrip_per_op": 1},
		"origin_miss": {"origin_calls_per_op": 1, "core.hit_ratio": 0, "client.pivot_per_op": 1, "server.serve_per_op": 1, "cluster.remote.put_per_op": 1, "wscached.tier.put_per_op": 1},
	}[name]
	for metric, v := range want {
		if got, ok := lr.PerLayer[metric]; !ok || got.Value != v {
			t.Errorf("%s: traced %s = %v (present %v), want exactly %v", name, metric, got.Value, ok, v)
		}
	}
	if v, ok := want["origin_calls_per_op"]; ok && wr.EndToEnd["origin_calls_per_op"].Value != v {
		t.Errorf("%s: origin_calls_per_op = %v, want exactly %v", name, wr.EndToEnd["origin_calls_per_op"].Value, v)
	}
	if name == "mixed_rw" {
		for _, metric := range []string{"cluster.remote.bump_per_op", "invalidate.bumps_per_op", "core.invalidations_per_op"} {
			if lr.PerLayer[metric].Value <= 0 {
				t.Errorf("mixed_rw: %s = %v, want writes to have been traced", metric, lr.PerLayer[metric].Value)
			}
		}
	}
}
