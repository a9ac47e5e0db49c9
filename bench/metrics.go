package main

import (
	"math"
	"sort"
)

// metricDef is one row of the benchmark contract. BENCHMARK.json repeats
// these tables for the driver; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening allowed (end-to-end only)
}

// endToEnd is what a client of the service sees. failed_share is printed
// with every run but is not in this table: it is expected to be exactly
// 0, and the contract compares metrics as a share of the parent's median.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.15},
}

// perLayer is the table a traced run fills, grouped by the module each
// number is measured around. Every workload reports every row; a layer a
// workload does not touch reports 0.
var perLayer = []metricDef{
	{Name: "server.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "server.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.json_share", Unit: "ratio", Better: "lower"},
	{Name: "server.request_bytes", Unit: "B", Better: "lower"},
	{Name: "server.response_bytes", Unit: "B", Better: "lower"},
	{Name: "server.session_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "topk.phase1_ms", Unit: "ms", Better: "lower"},
	{Name: "topk.phase1_share", Unit: "ratio", Better: "lower"},
	{Name: "topk.visited_per_req", Unit: "count", Better: "lower"},
	{Name: "topk.refined_per_req", Unit: "count", Better: "lower"},
	{Name: "topk.wave2_refined_share", Unit: "ratio", Better: "lower"},
	{Name: "core.phase2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase2_share", Unit: "ratio", Better: "lower"},
	{Name: "irtree.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.add_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.update_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.delete_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.retired_pages_per_mutation", Unit: "count", Better: "lower"},
	{Name: "ingest.epochs", Unit: "count", Better: "higher"},
	{Name: "storage.decoded_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "storage.decoded_lookups_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.decoded_evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.decoded_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.buffer_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "storage.physical_records_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.physical_pages_per_op", Unit: "count", Better: "lower"},
	{Name: "build.generate_s", Unit: "s", Better: "lower"},
	{Name: "build.index_s", Unit: "s", Better: "lower"},
	{Name: "persist.save_s", Unit: "s", Better: "lower"},
	{Name: "persist.load_s", Unit: "s", Better: "lower"},
	{Name: "persist.file_bytes_per_object", Unit: "B", Better: "lower"},
	{Name: "shardplan.split_s", Unit: "s", Better: "lower"},
	{Name: "shardplan.build_shards_s", Unit: "s", Better: "lower"},
	{Name: "coordinator.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "coordinator.shard_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "coordinator.self_ms", Unit: "ms", Better: "lower"},
	{Name: "coordinator.shard_calls_per_req", Unit: "count", Better: "lower"},
	{Name: "shard.phase1_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.select_ms", Unit: "ms", Better: "lower"},
	{Name: "coordinator.retries", Unit: "count", Better: "lower"},
	{Name: "coordinator.shard_errors", Unit: "count", Better: "lower"},
	{Name: "coordinator.tax_vs_single", Unit: "ratio", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_pause_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.late_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.layers_sum_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns a name→value map into the ordered list the tables define;
// a name the run did not set reports 0.
func fill(defs []metricDef, values map[string]float64) []metricValue {
	out := make([]metricValue, len(defs))
	for i, d := range defs {
		out[i] = metricValue{Name: d.Name, Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// percentile is the nearest-rank percentile of xs (p in [0,100]); 0 for
// an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a/b with 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
