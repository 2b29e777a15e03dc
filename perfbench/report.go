package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// report describes one run completely: where it ran, on what inputs, and
// what it measured. It is written to .bench_out/<workload>-seed<n>-trace<t>.json;
// a traced run also writes its spans beside it.
type report struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	P          int     `json:"p"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	// Commit is the checkout's git HEAD, empty outside a git repository;
	// SourceSHA256 identifies the measured source in either case.
	Commit       string            `json:"commit"`
	SourceSHA256 string            `json:"source_sha256"`
	Caches       map[string]string `json:"caches"`
	WorkingSet   string            `json:"working_set"`

	ProcessToFirstRequest float64 `json:"process_to_first_request_s"`
	// SetupRuns are the set-up times counted for the share of their wall
	// time the host ran the machine (see stealClock); SetupWallRuns are
	// the wall times and SetupSteal the steal shares.
	SetupRuns     []float64 `json:"setup_runs_s"`
	SetupWallRuns []float64 `json:"setup_wall_runs_s"`
	SetupSteal    []float64 `json:"setup_steal_share"`

	Requests       int     `json:"requests"`
	FailedRatio    float64 `json:"failed_ratio"`
	FirstError     string  `json:"first_error,omitempty"`
	LatencySamples int     `json:"latency_samples"`
	TailPercentile float64 `json:"latency_tail_percentile"`
	WindowSeconds  float64 `json:"window_s"`
	StealShare     float64 `json:"window_steal_share"`
	// WallMetrics are the end-to-end metrics from plain wall times, before
	// the steal share is taken out.
	WallMetrics map[string]float64 `json:"wall_metrics,omitempty"`

	Probes     map[string]float64 `json:"probes,omitempty"`
	SelfTimeMs map[string]float64 `json:"self_time_ms,omitempty"`
	Metrics    []metricDoc        `json:"metric_definitions"`
	Result     result             `json:"result"`

	spans []span
}

type metricDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Layer  string `json:"layer"`
	Moves  string `json:"moves,omitempty"`
}

func newReport(spec *workloadSpec, cfg config, clients int, traced bool, seconds float64) *report {
	r := &report{
		Workload: spec.name, Seed: cfg.seed, Seconds: seconds, Traced: traced,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), P: cfg.p,
		Clients: clients, GoVersion: runtime.Version(),
		Commit: gitHead(), SourceSHA256: sourceDigest("."), Caches: cacheSizes(),
		WorkingSet: spec.workingSet,
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		r.Metrics = append(r.Metrics, metricDoc{d.name, d.unit, d.better, d.layer, d.moves})
	}
	return r
}

func (r *report) describeLoop(lr loopResult) {
	r.Requests = lr.attempted
	r.FailedRatio = float64(lr.failed) / float64(lr.attempted)
	if lr.firstErr != nil {
		r.FirstError = lr.firstErr.Error()
	}
	r.LatencySamples = len(lr.latMs)
	_, r.TailPercentile = tail(lr.latMs)
	r.WindowSeconds = lr.elapsed.Seconds()
	r.StealShare = lr.steal
}

func (r *report) fileName() string {
	t := 0
	if r.Traced {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, t)
}

func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, r.fileName()), r); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	name := strings.TrimSuffix(r.fileName(), ".json") + "-spans.json"
	return writeJSON(filepath.Join(dir, name), r.spans)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitHead returns the commit checked out in the working directory, or ""
// when it is not a git repository.
func gitHead() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source file and go.mod under root (skipping
// dot-directories such as the build output), so two runs can be matched to
// the code they measured without git.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheSizes reads cpu0's cache hierarchy from sysfs (empty where sysfs is
// not available).
func cacheSizes() map[string]string {
	caches := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		size := readTrim(filepath.Join(d, "size"))
		shared := readTrim(filepath.Join(d, "shared_cpu_list"))
		if level == "" || size == "" {
			continue
		}
		caches["L"+level+" "+typ] = size + " shared by cpus " + shared
	}
	return caches
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
