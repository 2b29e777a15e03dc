package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
)

// sortedTwin returns a sorted copy of vs and the hash of vs.
func sortedTwin(vs []int32) ([]int32, uint64) {
	out := slices.Clone(vs)
	slices.Sort(out)
	return out, multisetHash(vs)
}

func TestCheckSorted(t *testing.T) {
	in := dist.Generate(dist.Random, 1000, 1)
	out, h := sortedTwin(in)
	if err := checkSorted(out, h); err != nil {
		t.Fatalf("valid output rejected: %v", err)
	}
	// Right order, wrong multiset: one element replaced by its neighbor.
	dup := slices.Clone(out)
	dup[500] = dup[499]
	zeros := make([]int32, len(out))
	swapped := slices.Clone(out)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	for name, bad := range map[string][]int32{"duplicate": dup, "zeros": zeros, "unsorted": swapped, "short": out[1:]} {
		if checkSorted(bad, h) == nil {
			t.Errorf("%s output accepted", name)
		}
	}
}

func TestCheckAnalytics(t *testing.T) {
	w := aggWeights(1)
	in := newSvcInput(dist.Generate(dist.Random, 4096, 1), &w)
	n := len(in.vals)
	src := in.vals

	dst := make([]int32, n)
	cnt := query.SeqFilter(src, dst, keep)
	if err := checkFilter(dst, cnt, int(in.keepN[n]), in.keepHash[n]); err != nil {
		t.Fatalf("filter: valid output rejected: %v", err)
	}
	if checkFilter(dst, cnt-1, int(in.keepN[n]), in.keepHash[n]) == nil {
		t.Error("filter: lost survivor accepted")
	}
	bad := slices.Clone(dst)
	bad[0] += 2 // still passes the predicate
	if checkFilter(bad, cnt, int(in.keepN[n]), in.keepHash[n]) == nil {
		t.Error("filter: altered survivor accepted")
	}

	grouped := make([]int32, n)
	starts := query.SeqGroupBy(src, grouped, numBuckets, bucket)
	if err := checkGroupBy(grouped, starts, in.hash[n]); err != nil {
		t.Fatalf("groupby: valid output rejected: %v", err)
	}
	bad = slices.Clone(grouped)
	bad[0], bad[n-1] = bad[n-1], bad[0]
	if checkGroupBy(bad, starts, in.hash[n]) == nil {
		t.Error("groupby: misplaced elements accepted")
	}
	bad = slices.Clone(grouped)
	bad[0] += numBuckets // same bucket, different value
	if checkGroupBy(bad, starts, in.hash[n]) == nil {
		t.Error("groupby: altered element accepted")
	}

	totals := query.SeqAggregate(src, numBuckets, int64(0), lift, bucket)
	if err := checkAggregate(totals, &w, in.agg[n]); err != nil {
		t.Fatalf("aggregate: valid output rejected: %v", err)
	}
	totals[3]++
	if checkAggregate(totals, &w, in.agg[n]) == nil {
		t.Error("aggregate: wrong total accepted")
	}

	top := make([]int32, topK)
	top = top[:query.SeqTopK(src, top, topK)]
	if err := checkTopK(src, top, topK, nil); err != nil {
		t.Fatalf("topk: valid output rejected: %v", err)
	}
	bad = slices.Clone(top)
	bad[0] = bad[1] // still descending, one of the largest lost
	if checkTopK(src, bad, topK, nil) == nil {
		t.Error("topk: lost element accepted")
	}
	if checkTopK(src, top[:topK-1], topK, nil) == nil {
		t.Error("topk: short selection accepted")
	}

	other := newSvcInput(dist.Generate(dist.Staggered, 4096, 2), &w)
	a, b := in.joinSort, other.joinSort
	want := sharedKeyCounts(a, b)[n]
	runs := make([]query.JoinRun[int32], n)
	nr := query.SeqMergeJoin(a, b, runs)
	if err := checkJoin(a, b, runs, nr, want); err != nil {
		t.Fatalf("join: valid output rejected: %v", err)
	}
	if checkJoin(a, b, runs, nr-1, want) == nil {
		t.Error("join: lost run accepted")
	}
	runs[0].AHi--
	if checkJoin(a, b, runs, nr, want) == nil {
		t.Error("join: truncated run accepted")
	}
}

func TestSharedKeyCounts(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a, b := make([]int32, 300), make([]int32, 300)
	for i := range a {
		a[i], b[i] = int32(r.Intn(100)), int32(r.Intn(100))
	}
	c := sharedKeyCounts(a, b)
	for n := 0; n <= len(a); n++ {
		inA := map[int32]bool{}
		for _, v := range a[:n] {
			inA[v] = true
		}
		shared := map[int32]bool{}
		for _, v := range b[:n] {
			if inA[v] {
				shared[v] = true
			}
		}
		if c[n] != len(shared) {
			t.Fatalf("n=%d: %d shared keys, want %d", n, c[n], len(shared))
		}
	}
}

func TestCheckTally(t *testing.T) {
	tree := newFibTree(10, 2, 2, 3)
	want := tree.want(10)
	if checkTally(want, want) != nil {
		t.Fatal("exact tally rejected")
	}
	for _, bad := range []workerSlot{
		{tasks: want.tasks - 1, sum: want.sum, teams: want.teams, elems: want.elems},
		{tasks: want.tasks, sum: want.sum + 1, teams: want.teams, elems: want.elems},
		{tasks: want.tasks, sum: want.sum, teams: want.teams - 1, elems: want.elems},
		{tasks: want.tasks, sum: want.sum, teams: want.teams, elems: want.elems - 1},
	} {
		if checkTally(bad, want) == nil {
			t.Errorf("wrong tally %+v accepted", bad)
		}
	}
}

// TestCorruptOutputsCountAsFailed runs each workload's closed loop with
// every output damaged after the call and checks that each request is
// counted as failed, and that the same loop without damage fails none.
func TestCorruptOutputsCountAsFailed(t *testing.T) {
	cfg := config{seed: 7, p: 2}
	// Right order, wrong multiset: the first element that differs from its
	// successor is overwritten by it.
	dupFirst := func(out []int32) {
		for i := 0; i+1 < len(out); i++ {
			if out[i] != out[i+1] {
				out[i] = out[i+1]
				return
			}
		}
	}

	sl := newSortLargeN(cfg, 1<<16)
	defer sl.close()
	tf, err := newTasksFine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.close()
	sm, err := newServiceMixedOn(repro.NewRuntime[int32](repro.Options{P: cfg.p}), cfg.seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.close()

	for _, c := range []struct {
		name     string
		w        workload
		set, off func()
	}{
		{"sort-large", sl, func() { sl.corrupt = dupFirst }, func() { sl.corrupt = nil }},
		{"tasks-fine", tf, func() { tf.(*tasksFine).corrupt = func(s *workerSlot) { s.tasks-- } },
			func() { tf.(*tasksFine).corrupt = nil }},
		{"service-mixed", sm, func() {
			sm.corrupt = func(o svcOutput) {
				switch {
				case len(o.out) > 1:
					dupFirst(o.out)
				case len(o.totals) > 0:
					o.totals[0]++
				case len(o.runs) > 0:
					o.runs[0].AHi--
				}
			}
		}, func() { sm.corrupt = nil }},
	} {
		lr := runLoop(c.w, 200*time.Millisecond, false, time.Now())
		if lr.failed != 0 || lr.attempted == 0 {
			t.Fatalf("%s: %d of %d clean requests failed: %v", c.name, lr.failed, lr.attempted, lr.firstErr)
		}
		c.set()
		lr = runLoop(c.w, 200*time.Millisecond, false, time.Now())
		c.off()
		v := endToEndValues(lr, []float64{1})
		if lr.failed != lr.attempted || v["verified_ratio"] != 0 {
			t.Errorf("%s: %d of %d corrupted requests failed, verified_ratio %v",
				c.name, lr.failed, lr.attempted, v["verified_ratio"])
		}
	}
}

// TestServiceMixedEveryMethod issues every Runtime method once per input
// at a small and a team-sized length.
func TestServiceMixedEveryMethod(t *testing.T) {
	rt := repro.NewRuntimeOn[int32](core.New(core.Options{P: 2}))
	defer rt.Scheduler().Shutdown()
	sm, err := newServiceMixedOn(rt, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < numMethods; m++ {
		for _, n := range []int{1 << svcMinLog, 3 << 15, svcMaxN} {
			if _, _, err := sm.do(0, svcReq{method: m, n: n, src: m & 1}, newSpanLog(time.Now())); err != nil {
				t.Errorf("%s n=%d: %v", runtimeMethods[m], n, err)
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); v != 89 || pct != 90 {
		t.Errorf("tail = %v at p%v, want 89 at p90", v, pct)
	}
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	if v, pct := tail(long); v != 899 || pct != 90 {
		t.Errorf("tail of 1000 samples = %v at p%v, want 899 at p90", v, pct)
	}
	if v, _ := tail(xs[:5]); v != 4 {
		t.Errorf("tail of 5 samples = %v, want the maximum", v)
	}
}

func TestStealCorrection(t *testing.T) {
	if s := stealShare(cpuTimes{steal: 10, total: 100}, cpuTimes{steal: 30, total: 200}); s != 0.2 {
		t.Errorf("stealShare = %v, want 0.2", s)
	}
	if s := stealShare(cpuTimes{}, cpuTimes{}); s != 0 {
		t.Errorf("stealShare of unreadable counters = %v, want 0", s)
	}
	lrs := []loopResult{
		{attempted: 2, items: 400, elapsed: 5 * time.Second, steal: 0.2, latMs: []float64{1, 2}},
		{attempted: 2, items: 400, elapsed: 5 * time.Second, steal: 0.6, latMs: []float64{3, 4}},
	}
	lr := mergeRounds(lrs, true)
	if math.Abs(lr.steal-0.4) > 1e-9 {
		t.Errorf("pooled steal share = %v, want 0.4", lr.steal)
	}
	v := endToEndValues(lr, []float64{1, 3, 2})
	// 6 s of the 10 s window ran; latencies 0.8 1.6 and 1.2 1.6
	want := map[string]float64{"items_per_s": 800.0 / 6, "requests_per_s": 4.0 / 6, "latency_p50_ms": 1.4, "setup_s": 2}
	for k, w := range want {
		if math.Abs(v[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, v[k], w)
		}
	}
	if v := endToEndValues(mergeRounds(lrs, false), nil); v["items_per_s"] != 80 {
		t.Errorf("wall items_per_s = %v, want 80", v["items_per_s"])
	}
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog(time.Now())
	l.on = true
	root := l.begin("request")
	c := l.begin("child")
	time.Sleep(2 * time.Millisecond)
	l.end(c)
	l.end(root)
	spans := appendSpans(appendSpans(nil, l.spans), l.spans)
	self := selfTimes(spans)
	if self["child"] < 4*time.Millisecond || self["request"] < 0 || self["request"] > self["child"] {
		t.Errorf("self times %v", self)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics listed, program reports %d", len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if g := c.got[i]; g != (def{d.name, d.unit, d.better}) {
				t.Errorf("metric %d: BENCHMARK.json has %+v, program reports %s %s %s", i, g, d.name, d.unit, d.better)
			}
		}
	}
}
