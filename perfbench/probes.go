package main

import (
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/internal/cilk"
	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/dist"
	"repro/internal/dist/distpar"
	"repro/internal/msort"
	"repro/internal/par"
	"repro/internal/qsort"
	"repro/internal/query"
	"repro/internal/ssort"
)

// The per-layer probes time calls into each module's public functions from
// outside, on inputs of fixed size, and take the median of several
// repetitions. The workload window of the traced run supplies the
// per-request counter ratios and the span self times.

// probeResult collects the per-layer metric values of one traced run.
type probeResult struct {
	values map[string]float64
	selfMs map[string]float64 // mean self time per traced request, by span name
	spans  []span
	errs   []error
}

func (pr *probeResult) check(err error) {
	if err != nil {
		pr.errs = append(pr.errs, err)
	}
}

// probeN is the input length of the kernel probes (par, ssort, msort,
// query): 256 Ki elements, the top of service-mixed's size range.
const probeN = svcMaxN

// timeIt returns the duration of fn in nanoseconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}

// medianNs runs prep (untimed) and fn (timed) reps times and returns the
// median duration of fn in nanoseconds.
func medianNs(reps int, prep, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		if prep != nil {
			prep()
		}
		ds[i] = timeIt(fn)
	}
	return median(ds)
}

// probeEnv is what the probes share: one scheduler of P workers with a
// Runtime on it, the run's seed, and the span log of the probe phase.
type probeEnv struct {
	s    *core.Scheduler
	rt   *repro.Runtime[int32]
	seed uint64
	p    int
	l    *spanLog
}

func runProbes(cfg config, lr loopResult, epoch time.Time) (probeResult, error) {
	pr := probeResult{values: map[string]float64{}}
	workloadRatios(&pr, lr)

	l := newSpanLog(epoch)
	l.on = true
	l.req = -1
	s := core.New(core.Options{P: cfg.p})
	defer s.Shutdown()
	env := &probeEnv{s: s, rt: repro.NewRuntimeOn[int32](s), seed: cfg.seed, p: cfg.p, l: l}
	probes := []struct {
		name string
		fn   func(*probeResult, *probeEnv)
	}{
		{"probe.deque", probeDeque},
		{"probe.r1", probeR1},
		{"probe.teams", probeTeams},
		{"probe.runtime", probeRuntime},
		{"probe.qsort", probeQsort},
		{"probe.kernels", probeKernels},
		{"probe.dist", probeDist},
		{"probe.trace", probeTrace},
	}
	for _, p := range probes {
		sp := l.begin(p.name)
		p.fn(&pr, env)
		l.end(sp)
	}
	pr.spans = l.spans
	return pr, errors.Join(pr.errs...)
}

// workloadRatios derives the counter ratios of the workload window.
func workloadRatios(pr *probeResult, lr loopResult) {
	d := lr.after.sched
	b := lr.before.sched
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	reqs := int64(lr.attempted)
	teams := d.TeamsFormed - b.TeamsFormed
	v := pr.values
	// Worker-loop steal attempts either find work or count as failed;
	// steals made while helping in TaskGroup.Wait are not attempts.
	attempts := d.StealAttempts - b.StealAttempts
	v["core.steal_success_ratio"] = ratio(attempts-(d.FailedAttempts-b.FailedAttempts), attempts)
	v["core.tasks_per_request"] = ratio(d.TasksRun-b.TasksRun, reqs)
	v["core.teams_per_request"] = ratio(teams, reqs)
	v["core.cas_failures_per_team"] = ratio(d.CASFailures-b.CASFailures, teams)
	v["core.conflicts_lost_per_team"] = ratio(d.ConflictsLost-b.ConflictsLost, teams)
	v["core.inject_takes_per_request"] = ratio(d.InjectTakes-b.InjectTakes, reqs)
	v["core.polls_per_request"] = ratio(d.Polls-b.Polls, reqs)
	wait := lr.after.wait
	for i := range wait.Counts {
		wait.Counts[i] -= lr.before.wait.Counts[i]
	}
	wait.Count -= lr.before.wait.Count
	wait.Sum -= lr.before.wait.Sum
	v["core.admission_wait_p50_us"] = wait.Percentile(50) * 1e6
	on := float64(lr.wallOn) / float64(max(lr.nOn, 1))
	off := float64(lr.wallOff) / float64(max(lr.nOff, 1))
	v["bench.span_overhead"] = on / off
	pr.selfMs = map[string]float64{}
	for name, d := range selfTimes(lr.spans) {
		pr.selfMs[name] = float64(d) / 1e6 / float64(max(lr.nOn, 1))
	}
}

// probeDeque times the Chase–Lev deque uncontended: an owner push+pop pair,
// and a thief draining a full victim with the paper's bulk steal.
func probeDeque(pr *probeResult, _ *probeEnv) {
	const ops = 1 << 20
	d := deque.New[int]()
	x := 0
	pr.values["deque.push_pop_ns"] = medianNs(7, nil, func() {
		for i := 0; i < ops; i++ {
			d.PushBottom(&x)
			d.PopBottom()
		}
	}) / ops
	const fill = 4096
	victim, dst := deque.New[int](), deque.New[int]()
	stolen := 0
	pr.values["deque.steal_ns_per_task"] = medianNs(31, func() {
		for i := 0; i < fill; i++ {
			victim.PushBottom(&x)
		}
		for dst.PopBottom() != nil {
		}
		stolen = 0
	}, func() {
		for {
			_, n := deque.Steal(victim, dst, fill)
			if n == 0 {
				break
			}
			stolen += n
		}
	}) / fill
	if stolen != fill {
		pr.check(fmt.Errorf("deque: stole %d of %d", stolen, fill))
	}
}

// r1Tree is a spawn-only fib call tree (every call an r = 1 task that
// spawns both children and returns; the scheduler's own quiescence is the
// join), laid out so that core, classic and cilk run the identical tree
// from preallocated nodes.
type r1Tree struct {
	n     []int8
	kids  [][2]int32
	slots []workerSlot
	core  []coreR1
	clas  []classicR1
	cilk  []cilkR1
}

type (
	coreR1 struct {
		t *r1Tree
		i int32
	}
	classicR1 struct {
		t *r1Tree
		i int32
	}
	cilkR1 struct {
		t *r1Tree
		i int32
	}
)

// r1N sizes the parity tree: fib(23) is 92735 tasks.
const r1N = 23

func newR1Tree(n, p int) *r1Tree {
	_, calls, _ := fibCounts(n)
	t := &r1Tree{n: make([]int8, calls), kids: make([][2]int32, calls), slots: make([]workerSlot, p),
		core: make([]coreR1, calls), clas: make([]classicR1, calls), cilk: make([]cilkR1, calls)}
	var build func(idx, n int) int
	build = func(idx, n int) int {
		t.n[idx] = int8(n)
		t.core[idx], t.clas[idx], t.cilk[idx] = coreR1{t, int32(idx)}, classicR1{t, int32(idx)}, cilkR1{t, int32(idx)}
		if n < 2 {
			return idx + 1
		}
		t.kids[idx][0] = int32(idx + 1)
		next := build(idx+1, n-1)
		t.kids[idx][1] = int32(next)
		return build(next, n-2)
	}
	build(0, n)
	return t
}

// visit tallies node i on worker w and reports whether it has children.
func (t *r1Tree) visit(i int32, w int) bool {
	sl := &t.slots[w]
	sl.tasks++
	if t.n[i] < 2 {
		sl.sum += int64(t.n[i])
		return false
	}
	return true
}

func (x *coreR1) Threads() int { return 1 }
func (x *coreR1) Run(ctx *core.Ctx) {
	if x.t.visit(x.i, ctx.WorkerID()) {
		k := x.t.kids[x.i]
		ctx.Spawn(&x.t.core[k[0]])
		ctx.Spawn(&x.t.core[k[1]])
	}
}

func (x *classicR1) Run(ctx *classic.Ctx) {
	if x.t.visit(x.i, ctx.WorkerID()) {
		k := x.t.kids[x.i]
		ctx.Spawn(&x.t.clas[k[0]])
		ctx.Spawn(&x.t.clas[k[1]])
	}
}

func (x *cilkR1) Run(ctx *cilk.Ctx) {
	if x.t.visit(x.i, ctx.WorkerID()) {
		k := x.t.kids[x.i]
		ctx.Spawn(&x.t.cilk[k[0]])
		ctx.Spawn(&x.t.cilk[k[1]])
	}
}

// probeR1 runs the identical r = 1 tree on core, classic and cilk: the
// paper's claim that r = 1 tasks cost what classical work-stealing costs.
// Each round starts each scheduler afresh, in a rotating order, and shuts
// it down before the next one starts.
func probeR1(pr *probeResult, env *probeEnv) {
	fib, calls, _ := fibCounts(r1N)
	t := newR1Tree(r1N, env.p)
	want := workerSlot{tasks: int64(calls), sum: int64(fib)}
	const rounds, runs = 5, 3
	times := map[string][]float64{}
	for round := 0; round < rounds; round++ {
		for k := 0; k < 3; k++ {
			which := (round + k) % 3
			var (
				name    string
				runOnce func()
				stop    func()
			)
			switch which {
			case 0:
				s := core.New(core.Options{P: env.p})
				name, runOnce, stop = "core", func() { pr.check(s.Run(&t.core[0])) }, s.Shutdown
			case 1:
				s := classic.New(classic.Options{P: env.p})
				name, runOnce, stop = "classic", func() { s.Run(&t.clas[0]) }, s.Shutdown
			default:
				s := cilk.New(cilk.Options{P: env.p})
				name, runOnce, stop = "cilk", func() { s.Run(&t.cilk[0]) }, s.Shutdown
			}
			for r := 0; r <= runs; r++ {
				clear(t.slots)
				d := timeIt(runOnce)
				if got := sumSlots(t.slots); got.tasks != want.tasks || got.sum != want.sum {
					pr.check(fmt.Errorf("r1 tree on %s: %d tasks, fib %d; want %d, %d", name, got.tasks, got.sum, want.tasks, want.sum))
				}
				if r > 0 { // the first run warms the scheduler up
					times[name] = append(times[name], d)
				}
			}
			stop()
		}
	}
	c := median(times["core"])
	pr.values["core.spawn_run_ns_per_task"] = c / float64(calls)
	pr.values["core.r1_vs_classic"] = c / median(times["classic"])
	pr.values["core.r1_vs_cilk"] = c / median(times["cilk"])
}

// probeTeams times team formation by r — an empty Func(r) group run minus
// an empty Solo group run, pairs interleaved — and one team looping on the
// team barrier.
func probeTeams(pr *probeResult, env *probeEnv) {
	s := env.s
	empty := func(*core.Ctx) {}
	solo := core.Solo(empty)
	for r := 2; r <= s.MaxTeam(); r *= 2 {
		team := core.Func(r, empty)
		const pairs = 301
		var ts, tt []float64
		for i := 0; i < pairs; i++ {
			ts = append(ts, timeIt(func() { pr.check(s.NewGroup().Run(solo)) }))
			tt = append(tt, timeIt(func() { pr.check(s.NewGroup().Run(team)) }))
		}
		pr.values[fmt.Sprintf("core.team_gather_us.r%d", r)] = (median(tt) - median(ts)) / 1e3
	}
	const iters = 1 << 16
	bar := core.Func(s.MaxTeam(), func(ctx *core.Ctx) {
		for i := 0; i < iters; i++ {
			ctx.Barrier()
		}
	})
	pr.values["teamsync.barrier_ns"] = medianNs(5, nil, func() { pr.check(s.NewGroup().Run(bar)) }) / iters
}

// probeRuntimeN is the input length of the per-method Runtime probe: above
// query.BestNp's 32 Ki switch, so team-sized requests.
const probeRuntimeN = 1 << 16

// probeRuntime times the smallest Runtime request and every Runtime
// request method at one fixed size, from the benchmark's request spans.
func probeRuntime(pr *probeResult, env *probeEnv) {
	rt := env.rt
	small := dist.Generate(dist.Random, 64, env.seed)
	buf := make([]int32, len(small))
	pr.values["runtime.min_request_us"] = medianNs(2001, func() { copy(buf, small) },
		func() { rt.SortForkJoin(buf) }) / 1e3
	pr.check(checkSorted(buf, multisetHash(small)))

	sm, err := newServiceMixedOn(rt, env.seed, 1)
	if err != nil {
		pr.check(err)
		return
	}
	lat := make([][]float64, numMethods)
	for rep := 0; rep < 15; rep++ {
		for m := range lat {
			_, d, err := sm.do(0, svcReq{method: m, n: probeRuntimeN, src: rep & 1}, env.l)
			pr.check(err)
			lat[m] = append(lat[m], float64(d)/1e6)
		}
	}
	for m, name := range runtimeMethods {
		pr.values["runtime."+name+".p50_ms"] = median(lat[m])
	}
}

// probeQsort times the sequential kernels on the sort-large input and the
// paper's table ratios on the same input: sequential introsort over
// mixed-mode, and fork-join over mixed-mode.
func probeQsort(pr *probeResult, env *probeEnv) {
	in := distpar.Generate(env.s, dist.Random, sortLargeN, env.seed)
	h := multisetHash(in)
	buf := make([]int32, len(in))
	n := float64(len(in))
	prep := func() { copy(buf, in) }
	pr.values["qsort.partition_ns_per_elem"] = medianNs(5, prep, func() { qsort.HoarePartition(buf) }) / n
	pr.check(checkMultiset(buf, h))
	var intro, mixed, fj []float64
	timed := func(fn func()) float64 {
		prep()
		d := timeIt(fn)
		pr.check(checkSorted(buf, h))
		return d
	}
	for rep := 0; rep < 3; rep++ {
		intro = append(intro, timed(func() { qsort.Introsort(buf) }))
		mixed = append(mixed, timed(func() { qsort.MixedMode(env.s, buf, qsort.MMOptions{}) }))
		fj = append(fj, timed(func() { qsort.ForkJoinCore(env.s, buf, qsort.DefaultCutoff) }))
	}
	pr.values["qsort.introsort_ns_per_elem"] = median(intro) / n
	pr.values["qsort.speedup_vs_seq"] = median(intro) / median(mixed)
	pr.values["qsort.forkjoin_over_mixed"] = median(fj) / median(mixed)
}

// probeKernels times the par primitives, the two other mixed-mode sorts and
// the query operators at probeN elements on a MaxTeam team, verifying
// every output.
func probeKernels(pr *probeResult, env *probeEnv) {
	w := aggWeights(env.seed)
	a := newSvcInput(dist.Generate(dist.Random, probeN, env.seed), &w)
	b := newSvcInput(dist.Generate(dist.Staggered, probeN, env.seed+1), &w)
	s, np, n, src := env.s, env.s.MaxTeam(), probeN, a.vals
	run := func(t core.Task) { pr.check(s.NewGroup().Run(t)) }
	const reps = 15
	perElem := func(name string, prep, fn func()) {
		pr.values[name] = medianNs(reps, prep, fn) / float64(n)
	}

	var sum, wantSum int64
	for _, v := range src {
		wantSum += int64(v)
	}
	perElem("par.reduce_ns_per_elem", nil, func() {
		run(par.Reduce(np, n, int64(0), func(i int) int64 { return int64(src[i]) }, comb, &sum))
	})
	data := make([]int64, n)
	perElem("par.scan_ns_per_elem", func() {
		for i, v := range src {
			data[i] = int64(v)
		}
	}, func() { run(par.ScanInclusive(np, data, int64(0), comb, &sum)) })
	if sum != wantSum || data[n-1] != wantSum {
		pr.check(fmt.Errorf("par: reduce/scan total %d, want %d", sum, wantSum))
	}
	dst := make([]int32, n)
	cnt := 0
	perElem("par.pack_ns_per_elem", nil, func() {
		run(par.Pack(np, src, dst, func(_ int, v int32) bool { return keep(v) }, &cnt))
	})
	pr.check(checkFilter(dst, cnt, int(a.keepN[n]), a.keepHash[n]))
	hist := make([]int, numBuckets)
	perElem("par.histogram_ns_per_elem", nil, func() {
		run(par.Histogram(np, n, numBuckets, func(i int) int { return bucket(src[i]) }, hist))
	})
	if total := sumInts(hist); total != n {
		pr.check(fmt.Errorf("par: histogram counts %d of %d", total, n))
	}

	prep := func() { copy(dst, src) }
	perElem("ssort.ns_per_elem", prep, func() { ssort.Sort(s, dst, ssort.Options{}) })
	pr.check(checkSorted(dst, a.hash[n]))
	perElem("msort.ns_per_elem", prep, func() { msort.Sort(s, dst, msort.Options{}) })
	pr.check(checkSorted(dst, a.hash[n]))

	perElem("query.filter_ns_per_elem", nil, func() { run(query.Filter(np, src, dst, keep, &cnt)) })
	pr.check(checkFilter(dst, cnt, int(a.keepN[n]), a.keepHash[n]))
	starts := make([]int, numBuckets+1)
	perElem("query.groupby_ns_per_elem", nil, func() { run(query.GroupBy(np, src, dst, numBuckets, bucket, starts)) })
	pr.check(checkGroupBy(dst, starts, a.hash[n]))
	totals := make([]int64, numBuckets)
	perElem("query.aggregate_ns_per_elem", nil, func() {
		run(query.Aggregate(np, src, numBuckets, bucket, int64(0), lift, comb, totals))
	})
	pr.check(checkAggregate(totals, &w, a.agg[n]))
	perElem("query.topk_ns_per_elem", nil, func() { run(query.TopK(np, src, dst[:topK], topK, &cnt)) })
	pr.check(checkTopK(src, dst[:cnt], topK, nil))
	runs := make([]query.JoinRun[int32], n)
	pr.values["query.join_ns_per_elem"] = medianNs(reps, nil, func() {
		run(query.MergeJoin(np, a.joinSort, b.joinSort, runs, &cnt))
	}) / float64(2*n)
	pr.check(checkJoin(a.joinSort, b.joinSort, runs, cnt, sharedKeyCounts(a.joinSort, b.joinSort)[n]))
	plan := query.NewPlan[int32](n, np, 0).Filter(keep).Aggregate(numBuckets, bucket, 0, lift, comb).TopK(topK)
	var res query.Result[int32]
	perElem("query.plan_ns_per_elem", nil, func() { res = plan.Execute(s.NewGroup(), src) })
	pr.check(checkTopK(src, res.Out, topK, keep))
	pr.check(checkAggregate(res.Aggregates, &w, a.aggKeep[n]))
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// probeDist times the parallel generation of the sort-large input pair,
// the bulk of every workload's input set-up.
func probeDist(pr *probeResult, env *probeEnv) {
	pr.values["dist.generate_s"] = medianNs(3, nil, func() {
		for i, k := range sortLargeKinds {
			distpar.Generate(env.s, k, sortLargeN, env.seed+uint64(i))
		}
	}) / 1e9
}

// probeTrace runs tasks-fine requests with the scheduler's execution
// tracer on and off, alternating, and reports the slowdown as the ratio of
// median request times (on ÷ off).
func probeTrace(pr *probeResult, env *probeEnv) {
	tf, err := newTasksFineOn(env.s, env.seed)
	if err != nil {
		pr.check(err)
		return
	}
	quiet := newSpanLog(time.Now())
	var on, off []float64
	for rep := 0; rep < 6; rep++ {
		for k := 0; k < 2; k++ {
			traced := (rep+k)%2 == 1
			if traced {
				env.s.StartTrace()
			}
			_, d, err := tf.request(0, quiet)
			if traced {
				env.s.StopTrace()
				on = append(on, float64(d))
			} else {
				off = append(off, float64(d))
			}
			pr.check(err)
		}
	}
	pr.values["trace.ring_slowdown"] = median(on) / median(off)
}
