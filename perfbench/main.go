// Command perfbench is the repository benchmark. It runs one named
// workload as a closed loop on one shared scheduler, verifies every output,
// and prints the metrics as the last line of standard output:
//
//	go run . --workload sort-large --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer, runs the per-layer probes
// and reports the per-layer metrics. See README.md for the metric and
// workload definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// config is what a workload's set-up needs.
type config struct {
	seed uint64
	p    int // scheduler workers
}

// workloadSpec names a workload, describes its data and builds it.
type workloadSpec struct {
	name, workingSet string
	setup            func(config) (workload, error)
}

var workloads = []workloadSpec{
	{"sort-large", "16 MiB per request (2^22-1 int32 sorted in place)", newSortLarge},
	{"tasks-fine", "about 7.8 MB of task-tree nodes (fib(25), 242785 tasks) per request", newTasksFine},
	{"service-mixed", "1 KiB to 1 MiB per request (1 Ki to 256 Ki int32); shared inputs about 12 MiB", newServiceMixed},
}

// outDir receives the run reports and spans.
const outDir = ".bench_out"

// rounds is how many times an untraced run sets its workload up afresh
// and measures it, for an equal share of the window each time; the
// metrics pool the rounds, and setup_s is the median set-up. How fast one
// set-up runs depends on where it happens to land in memory and on the
// machine: on a 2-vCPU Xeon virtual machine, tasks-fine ran at either about
// 2.7 or about 3.4 million tasks per second from one set-up to the next in
// the same process, with little steal. Pooling rounds averages that out
// within a run. A traced run has one round, because its counter ratios come
// from one scheduler.
const rounds = 6

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// counters is one reading of the scheduler's public counters.
type counters struct {
	sched stats.Snapshot
	admit stats.AdmissionSnapshot
	wait  stats.HistSnapshot
}

func readCounters(s *core.Scheduler) counters {
	return counters{sched: s.Stats(), admit: s.Admission(), wait: s.AdmissionWait()}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	processStart := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sort-large, tasks-fine or service-mixed")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 records spans, runs the per-layer probes and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	traced := *traceFlag == 1
	cfg := config{seed: *seed, p: runtime.NumCPU()}

	n := rounds
	if traced {
		n = 1
	}
	var (
		rep                             *report
		lrs                             []loopResult
		setups, setupWalls, setupSteals []float64
	)
	for r := 0; r < n; r++ {
		clk := startStealClock()
		w, err := spec.setup(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up of %s: %v\n", spec.name, err)
			return 1
		}
		d, steal := clk.stop()
		setups = append(setups, d.Seconds()*(1-steal))
		setupWalls = append(setupWalls, d.Seconds())
		setupSteals = append(setupSteals, steal)
		if rep == nil {
			rep = newReport(spec, cfg, w.clients(), traced, *seconds)
			rep.ProcessToFirstRequest = time.Since(processStart).Seconds()
		}
		lrs = append(lrs, runLoop(w, time.Duration(*seconds*float64(time.Second))/time.Duration(n), traced, processStart))
		w.close()
	}
	rep.SetupRuns, rep.SetupWallRuns, rep.SetupSteal = setups, setupWalls, setupSteals
	lr, wall := lrs[0], lrs[0]
	if !traced {
		lr, wall = mergeRounds(lrs, true), mergeRounds(lrs, false)
	}

	res := result{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed,
		Metrics: map[string]metric{}}
	rep.describeLoop(wall)
	if lr.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %d of %d requests failed verification; first: %v\n",
			lr.failed, lr.attempted, lr.firstErr)
	}
	if traced {
		pr, err := runProbes(cfg, lr, processStart)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: per-layer probes: %v\n", err)
			res.Correct = false
		}
		for _, d := range perLayer {
			v, ok := pr.values[d.name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: per-layer metric %s was not measured\n", d.name)
				return 1
			}
			res.Metrics[d.name] = metric{v, d.unit}
		}
		rep.Probes = pr.values
		rep.SelfTimeMs = pr.selfMs
		rep.spans = appendSpans(lr.spans, pr.spans)
	} else {
		vals := endToEndValues(lr, setups)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		rep.WallMetrics = endToEndValues(wall, setupWalls)
	}
	rep.Result = res
	if err := rep.write(outDir); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing the report: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed %d: %d requests in %.1fs, steal share %.3f, failed_ratio %.4g, latency tail at p%.1f of %d samples; report %s\n",
		rep.Workload, rep.Seed, rep.Requests, rep.WindowSeconds, rep.StealShare, rep.FailedRatio, rep.TailPercentile,
		rep.LatencySamples, filepath.Join(outDir, rep.fileName()))
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// endToEndValues computes the end-to-end metrics of an untraced window
// from its pooled rounds and the set-up times.
func endToEndValues(lr loopResult, setups []float64) map[string]float64 {
	secs := lr.elapsed.Seconds()
	completed := lr.attempted - lr.failed
	t, _ := tail(lr.latMs)
	return map[string]float64{
		"setup_s":                 median(setups),
		"items_per_s":             float64(lr.items) / secs,
		"requests_per_s":          float64(completed) / secs,
		"latency_p50_ms":          median(lr.latMs),
		"latency_tail_ms":         t,
		"verified_ratio":          float64(completed) / float64(lr.attempted),
		"alloc_bytes_per_request": float64(lr.allocBytes) / float64(lr.attempted),
	}
}
