package main

import (
	"fmt"
	"math"
	"sort"
)

// value is one reported metric. Samples are the per-slice (or
// per-set-up) readings the value is the median of, kept so that
// -compare can tell a difference from the spread.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

func medianOf(unit string, samples []float64) value {
	return value{Value: median(append([]float64(nil), samples...)), Unit: unit, Samples: samples}
}

// metricDef declares an end-to-end metric: its direction and the bound
// by which it may worsen before -compare calls it a regression — the
// larger of Bound (a share of the baseline) and Abs (in the metric's
// own unit).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Abs    float64 `json:"abs,omitempty"`
}

// endToEnd are the metrics a user of the middleware sees, the same on
// every workload. The first seven are never zero and are the gated
// end_to_end list of BENCHMARK.json, with these bounds — each at least
// three times the widest run-to-run spread observed when the benchmark
// was defined (README.md, "Observed spreads"). The last two
// are legitimately zero on most workloads (that is the point of a
// cache), which a relative bound cannot express; BENCHMARK.json lists
// them under per_layer and this program gates them itself.
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ns", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "lat_p90_ns", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05, Abs: 0.25},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.08},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "origin_calls_per_op", Unit: "1/op", Better: "lower", Bound: 0.02, Abs: 0.005},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
}

// gatedEndToEnd is how many leading entries of endToEnd the driver gates.
const gatedEndToEnd = 7

// endToEndValues turns a timed phase into the end-to-end metrics: each
// is the median over the slices, so one noisy-neighbour burst cannot
// move it.
func endToEndValues(ph *phase, setups []float64, heapMB float64) map[string]value {
	n := len(ph.slices)
	tput, p50, p90, allocs, bytes := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range ph.slices {
		s := &ph.slices[i]
		tput[i] = float64(s.ops) / s.elapsed.Seconds()
		p50[i] = s.hist.Quantile(0.50)
		p90[i] = s.hist.Quantile(0.90)
		allocs[i] = float64(s.mallocs) / float64(s.ops)
		bytes[i] = float64(s.allocBytes) / float64(s.ops)
	}
	return map[string]value{
		"throughput_ops_s":    medianOf("1/s", tput),
		"lat_p50_ns":          medianOf("ns", p50),
		"lat_p90_ns":          medianOf("ns", p90),
		"allocs_per_op":       medianOf("count", allocs),
		"alloc_bytes_per_op":  medianOf("B", bytes),
		"heap_live_mb":        {Value: heapMB, Unit: "MB"},
		"setup_s":             medianOf("s", setups),
		"origin_calls_per_op": {Value: float64(ph.delta.originCalls) / float64(ph.ops), Unit: "1/op"},
		"fail_ratio":          {Value: float64(ph.failed) / float64(ph.ops), Unit: "ratio"},
	}
}

// tailValues reports the percentiles that are not gates: on two shared
// cores p99 and beyond do not repeat within a tenth. Each comes with
// the number of samples beyond it.
func tailValues(ph *phase) map[string]value {
	return map[string]value{
		"tail.lat_p99_ns":       {Value: ph.all.Quantile(0.99), Unit: "ns"},
		"tail.lat_p99_samples":  {Value: float64(ph.all.Beyond(0.99)), Unit: "count"},
		"tail.lat_p999_ns":      {Value: ph.all.Quantile(0.999), Unit: "ns"},
		"tail.lat_p999_samples": {Value: float64(ph.all.Beyond(0.999)), Unit: "count"},
	}
}

// tracedValues names the span statistics of a traced phase. A layer
// the workload never enters has no entry.
func tracedValues(lt layerTimes) map[string]value {
	out := make(map[string]value)
	add := func(name string, s spanStat) {
		if s.perOp > 0 {
			out[name+"_ns"] = value{Value: s.p50, Unit: "ns"}
			out[name+"_per_op"] = value{Value: s.perOp, Unit: "1/op"}
		}
	}
	add("client.chain", lt.self[spOp])
	add("rep.keygen", lt.self[spKeygen])
	add("core.l1_self", lt.self[spCore])
	add("cluster.remote.get", lt.incl[spRemoteGet])
	add("cluster.remote.put", lt.incl[spRemotePut])
	add("cluster.remote.bump", lt.incl[spRemoteBump])
	add("wscached.tier.get", lt.self[spDaemonGet])
	add("wscached.tier.put", lt.self[spDaemonPut])
	add("cluster.wire", lt.wire)
	add("client.pivot", lt.incl[spPivot])
	add("soap.codec_self", lt.self[spPivot])
	add("transport.roundtrip", lt.incl[spTransport])
	add("transport.http_self", lt.self[spTransport])
	add("server.serve", lt.self[spServe])
	return out
}

// countValues reads the layers' own public counters over a phase.
func countValues(ph *phase) map[string]value {
	d, ops := ph.delta, float64(ph.ops)
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	return map[string]value{
		"origin_calls_per_op":               {Value: float64(d.originCalls) / ops, Unit: "1/op"},
		"fail_ratio":                        {Value: float64(ph.failed) / ops, Unit: "ratio"},
		"core.hit_ratio":                    {Value: ratio(d.core.Hits, d.core.Misses), Unit: "ratio"},
		"core.tier_hits_per_op":             {Value: float64(d.core.TierHits) / ops, Unit: "1/op"},
		"core.evictions_per_op":             {Value: float64(d.core.Evictions) / ops, Unit: "1/op"},
		"core.invalidations_per_op":         {Value: float64(d.core.Invalidations) / ops, Unit: "1/op"},
		"core.coalesced_per_op":             {Value: float64(d.core.Coalesced) / ops, Unit: "1/op"},
		"core.entries":                      {Value: float64(d.core.Entries), Unit: "count"},
		"core.bytes":                        {Value: float64(d.core.Bytes), Unit: "B"},
		"wscached.entries":                  {Value: float64(d.daemon.Entries), Unit: "count"},
		"wscached.bytes":                    {Value: float64(d.daemon.Bytes), Unit: "B"},
		"server.cache.hit_ratio":            {Value: ratio(d.srvHits, d.srvMisses), Unit: "ratio"},
		"invalidate.bumps_per_op":           {Value: float64(d.epochBumps) / ops, Unit: "1/op"},
		"invalidate.keyspaces":              {Value: float64(d.keyspaces), Unit: "count"},
		"invalidate.xproc_lag_reads_per_op": {Value: float64(d.lagReads) / ops, Unit: "1/op"},
	}
}

// sortedNames returns a metric map's names in order, for stable output.
func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func merge(dst map[string]value, srcs ...map[string]value) map[string]value {
	for _, src := range srcs {
		for k, v := range src {
			dst[k] = v
		}
	}
	return dst
}

// finite reports whether every value can be written as JSON.
func finite(m map[string]value) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}
