package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (checked by TestBenchmarkJSONMatches); layer
// and moves are documented in README.md.
type metricDef struct {
	name, unit, better string
	layer              string
	// moves names the end-to-end metric and workload a per-layer metric
	// should move.
	moves string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{name: "items_per_s", unit: "items/s", better: "higher", layer: "end-to-end"},
	{name: "requests_per_s", unit: "req/s", better: "higher", layer: "end-to-end"},
	{name: "latency_p50_ms", unit: "ms", better: "lower", layer: "end-to-end"},
	{name: "latency_tail_ms", unit: "ms", better: "lower", layer: "end-to-end"},
	{name: "verified_ratio", unit: "ratio", better: "higher", layer: "end-to-end"},
	{name: "alloc_bytes_per_request", unit: "B", better: "lower", layer: "end-to-end"},
	{name: "setup_s", unit: "s", better: "lower", layer: "end-to-end"},
}

const (
	movesTasksFine   = "items_per_s on tasks-fine"
	movesTasksFineLP = "items_per_s and latency_p50_ms on tasks-fine"
	movesTeams       = "items_per_s on tasks-fine, latency_p50_ms on service-mixed"
	movesService     = "requests_per_s and latency_p50_ms on service-mixed"
	movesSortLarge   = "items_per_s and latency_p50_ms on sort-large"
	movesKernels     = "items_per_s on service-mixed"
	movesSetup       = "setup_s on every workload"
)

// runtimeMethods are the Runtime request methods service-mixed covers; each
// has a runtime.<method>.p50_ms per-layer metric.
var runtimeMethods = []string{
	"SortMixedMode", "SortForkJoin", "SortSamplesort", "SortMergeMixedMode",
	"SortMany", "SortManyCtx",
	"Filter", "GroupBy", "Aggregate", "TopK", "MergeJoin", "SortJoin", "RunPlan",
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{"deque.push_pop_ns", "ns", "lower", "deque", movesTasksFine},
		{"deque.steal_ns_per_task", "ns", "lower", "deque", movesTasksFine},
		{"core.spawn_run_ns_per_task", "ns", "lower", "core r=1", movesTasksFineLP},
		{"core.r1_vs_classic", "ratio", "lower", "core r=1", movesTasksFineLP},
		{"core.r1_vs_cilk", "ratio", "lower", "core r=1", movesTasksFineLP},
		{"core.steal_success_ratio", "ratio", "higher", "core r=1", movesTasksFineLP},
		{"core.tasks_per_request", "count", "lower", "core r=1", movesTasksFineLP},
		{"core.team_gather_us.r2", "us", "lower", "core teams", movesTeams},
		{"core.cas_failures_per_team", "count", "lower", "core teams", movesTeams},
		{"core.conflicts_lost_per_team", "count", "lower", "core teams", movesTeams},
		{"core.teams_per_request", "count", "lower", "core teams", movesTeams},
		{"teamsync.barrier_ns", "ns", "lower", "teamsync", movesTasksFine},
		{"runtime.min_request_us", "us", "lower", "runtime", movesService},
		{"core.admission_wait_p50_us", "us", "lower", "core admission", movesService},
		{"core.inject_takes_per_request", "count", "lower", "core admission", movesService},
		{"core.polls_per_request", "count", "lower", "core admission", movesService},
	}
	for _, m := range runtimeMethods {
		ds = append(ds, metricDef{"runtime." + m + ".p50_ms", "ms", "lower", "runtime", movesService})
	}
	ds = append(ds,
		metricDef{"qsort.introsort_ns_per_elem", "ns", "lower", "qsort", movesSortLarge},
		metricDef{"qsort.partition_ns_per_elem", "ns", "lower", "qsort", movesSortLarge},
		metricDef{"qsort.speedup_vs_seq", "ratio", "higher", "qsort", "reported only (paper Tables 1-10)"},
		metricDef{"qsort.forkjoin_over_mixed", "ratio", "higher", "qsort", "reported only (paper Tables 1-10)"},
	)
	for _, op := range []string{"reduce", "scan", "pack", "histogram"} {
		ds = append(ds, metricDef{"par." + op + "_ns_per_elem", "ns", "lower", "par", movesKernels})
	}
	ds = append(ds,
		metricDef{"ssort.ns_per_elem", "ns", "lower", "ssort", movesKernels},
		metricDef{"msort.ns_per_elem", "ns", "lower", "msort", movesKernels},
	)
	for _, op := range []string{"filter", "groupby", "aggregate", "topk", "join", "plan"} {
		ds = append(ds, metricDef{"query." + op + "_ns_per_elem", "ns", "lower", "query", movesKernels})
	}
	return append(ds,
		metricDef{"dist.generate_s", "s", "lower", "dist", movesSetup},
		metricDef{"trace.ring_slowdown", "ratio", "lower", "trace", "nothing at defaults; gates probe cost"},
		metricDef{"bench.span_overhead", "ratio", "lower", "benchmark spans", "nothing; the tracing overhead of this benchmark"},
	)
}()
