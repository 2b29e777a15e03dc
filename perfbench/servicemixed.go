package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/query"
)

const (
	// Request sizes are log-uniform over [2^svcMinLog, 2^svcMaxLog].
	svcMinLog, svcMaxLog = 10, 18
	svcMaxN              = 1 << svcMaxLog
	// svcStrata splits the size range into equal log-width strata; every
	// cycle of requests holds one request per (method, stratum), so each
	// run sees the same mix whatever the seed.
	svcStrata = 16
	batchSize = 4
	// joinKeyMask narrows join keys to 2^16 values so the joins match.
	joinKeyMask = 1<<16 - 1
)

// Method indexes follow runtimeMethods.
const (
	mSortMixedMode = iota
	mSortForkJoin
	mSortSamplesort
	mSortMergeMixedMode
	mSortMany
	mSortManyCtx
	mFilter
	mGroupBy
	mAggregate
	mTopK
	mMergeJoin
	mSortJoin
	mRunPlan
	numMethods
)

// svcInput is one pre-generated input array with the prefix expectations
// its requests are verified against: entry n of each prefix array
// describes vals[:n].
type svcInput struct {
	vals     []int32
	hash     []uint64 // multiset hash
	keepN    []uint64 // survivors of keep
	keepHash []uint64 // multiset hash of the survivors
	agg      []uint64 // Σ aggWeight[bucket(v)]·v
	aggKeep  []uint64 // the same over the survivors
	join     []int32  // vals narrowed to join keys
	joinHash []uint64
	joinSort []int32 // join, sorted
}

func newSvcInput(vals []int32, w *[numBuckets]uint64) svcInput {
	in := svcInput{vals: vals}
	in.hash = prefixOf(vals, elemHash)
	in.keepN = prefixOf(vals, func(v int32) uint64 {
		if keep(v) {
			return 1
		}
		return 0
	})
	in.keepHash = prefixOf(vals, func(v int32) uint64 {
		if keep(v) {
			return elemHash(v)
		}
		return 0
	})
	in.agg = prefixOf(vals, func(v int32) uint64 { return w[bucket(v)] * uint64(int64(v)) })
	in.aggKeep = prefixOf(vals, func(v int32) uint64 {
		if keep(v) {
			return w[bucket(v)] * uint64(int64(v))
		}
		return 0
	})
	in.join = make([]int32, len(vals))
	for i, v := range vals {
		in.join[i] = v & joinKeyMask
	}
	in.joinHash = prefixOf(in.join, elemHash)
	in.joinSort = append([]int32(nil), in.join...)
	repro.SortSequential(in.joinSort)
	return in
}

// svcReq is one planned request.
type svcReq struct {
	method, n, src int
}

// svcClient is one client's request stream and private buffers.
type svcClient struct {
	rng   uint64
	phase float64 // seeded offset of the size sequence
	cycle int
	reqs  []svcReq
	next  int
	bufs  [batchSize][]int32
	runs  []query.JoinRun[int32]
	plan  *repro.QueryPlan[int32]
}

func (c *svcClient) rand() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	return mix64(c.rng)
}

func (c *svcClient) float() float64 { return float64(c.rand()>>11) / (1 << 53) }

// refill plans the next cycle: one request per (method, stratum), in a
// shuffled order. Inside its stratum a request's log-size advances by the
// golden ratio from cycle to cycle, from a seeded phase: the sizes are
// log-uniform, and any run of cycles covers each stratum evenly, so the
// mix a run sees hardly depends on the seed. The input alternates between
// the two arrays.
func (c *svcClient) refill() {
	const golden = 0.6180339887498949
	c.reqs = c.reqs[:0]
	for m := 0; m < numMethods; m++ {
		for s := 0; s < svcStrata; s++ {
			_, u := math.Modf(c.phase + golden*float64(c.cycle+m*svcStrata+s))
			lg := svcMinLog + (svcMaxLog-svcMinLog)*(float64(s)+u)/svcStrata
			c.reqs = append(c.reqs, svcReq{method: m, n: int(math.Round(math.Exp2(lg))), src: (c.cycle + m + s) & 1})
		}
	}
	c.cycle++
	for i := len(c.reqs) - 1; i > 0; i-- {
		j := int(c.rand() % uint64(i+1))
		c.reqs[i], c.reqs[j] = c.reqs[j], c.reqs[i]
	}
	c.next = 0
}

// serviceMixed is the Runtime as a shared service: two clients on one
// Runtime, each issuing its own seeded stream over every request method.
// Sorts write into per-client buffers; analytics read the shared inputs in
// place.
type serviceMixed struct {
	rt *repro.Runtime[int32]
	in [2]svcInput
	w  [numBuckets]uint64
	// shared[n] counts the distinct keys the two sorted (sharedSorted) or
	// unsorted (sharedUnsorted) join prefixes of length n have in common.
	sharedSorted, sharedUnsorted []int
	cl                           []*svcClient
	// corrupt, when set, damages each request's outputs before they are
	// verified; the benchmark's own tests use it.
	corrupt func(svcOutput)
}

// svcOutput is what one request returned, for corrupt: the element output
// (the first buffer of a batch or join), the aggregate totals and the join
// runs, each nil where the method has none.
type svcOutput struct {
	out    []int32
	totals []int64
	runs   []query.JoinRun[int32]
}

var svcKinds = [2]dist.Kind{dist.Random, dist.Staggered}

func newServiceMixed(cfg config) (workload, error) {
	return newServiceMixedOn(repro.NewRuntime[int32](repro.Options{P: cfg.p}), cfg.seed, 2)
}

// newServiceMixedOn sets service-mixed up on rt with the given number of
// clients; close closes rt.
func newServiceMixedOn(rt *repro.Runtime[int32], seed uint64, clients int) (*serviceMixed, error) {
	w := &serviceMixed{rt: rt, w: aggWeights(seed)}
	for i, k := range svcKinds {
		vals := repro.GenerateInputParallel(rt.Scheduler(), k, svcMaxN, seed+uint64(i))
		w.in[i] = newSvcInput(vals, &w.w)
	}
	w.sharedSorted = sharedKeyCounts(w.in[0].joinSort, w.in[1].joinSort)
	w.sharedUnsorted = sharedKeyCounts(w.in[0].join, w.in[1].join)
	for c := 0; c < clients; c++ {
		cl := &svcClient{rng: mix64(seed*0x100000001b3 + uint64(c))}
		cl.phase = cl.float()
		for j := range cl.bufs {
			cl.bufs[j] = make([]int32, svcMaxN)
		}
		cl.runs = make([]query.JoinRun[int32], svcMaxN)
		cl.plan = w.rt.NewPlan(svcMaxN).Filter(keep).Aggregate(numBuckets, bucket, 0, lift, comb).TopK(topK)
		w.cl = append(w.cl, cl)
	}
	// Warm-up: every method once per client at a team-sized input.
	l := newSpanLog(time.Now())
	for c := range w.cl {
		for m := 0; m < numMethods; m++ {
			if _, _, err := w.do(c, svcReq{method: m, n: 1 << 16}, l); err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		w.cl[c].refill()
	}
	return w, nil
}

func (w *serviceMixed) clients() int { return len(w.cl) }

func (w *serviceMixed) request(c int, l *spanLog) (int, time.Duration, error) {
	cl := w.cl[c]
	if cl.next == len(cl.reqs) {
		cl.refill()
	}
	r := cl.reqs[cl.next]
	cl.next++
	return w.do(c, r, l)
}

// do issues one request: it prepares the client's buffers, times the
// Runtime call, and verifies the reply.
func (w *serviceMixed) do(c int, r svcReq, l *spanLog) (int, time.Duration, error) {
	cl, in, n := w.cl[c], &w.in[r.src], r.n
	src := in.vals[:n]
	// Batches and joins split the drawn length, so that every request
	// covers n elements: m is the length of each sort of a batch, h that
	// of each join side.
	m, h := n/batchSize, n/2
	buf := cl.bufs[0][:n]
	rt := w.rt
	name := "runtime." + runtimeMethods[r.method]

	sp := l.begin("bench.prepare")
	switch r.method {
	case mSortMixedMode, mSortForkJoin, mSortSamplesort, mSortMergeMixedMode:
		copy(buf, src)
	case mSortMany, mSortManyCtx:
		for j := range cl.bufs {
			copy(cl.bufs[j][:m], src[j*m:(j+1)*m])
		}
	case mSortJoin:
		copy(cl.bufs[0][:h], w.in[0].join[:h])
		copy(cl.bufs[1][:h], w.in[1].join[:h])
	}
	l.end(sp)

	var (
		items  = n
		cnt    int
		starts []int
		totals []int64
		res    repro.QueryResult[int32]
		err    error
	)
	t0 := time.Now()
	sp = l.begin(name)
	switch r.method {
	case mSortMixedMode:
		rt.SortMixedMode(buf, repro.MMOptions{})
	case mSortForkJoin:
		rt.SortForkJoin(buf)
	case mSortSamplesort:
		rt.SortSamplesort(buf, repro.SSOptions{})
	case mSortMergeMixedMode:
		rt.SortMergeMixedMode(buf, repro.MSOptions{})
	case mSortMany, mSortManyCtx:
		var reqs [batchSize]repro.SortRequest[int32]
		for j := range reqs {
			reqs[j] = repro.SortRequest[int32]{Data: cl.bufs[j][:m], Algo: repro.SortAlgo(j)}
		}
		if r.method == mSortMany {
			rt.SortMany(reqs[:], repro.BatchOptions{})
		} else {
			err = rt.SortManyCtx(context.Background(), reqs[:], repro.BatchOptions{})
		}
		items = batchSize * m
	case mFilter:
		cnt = rt.Filter(src, buf, keep)
	case mGroupBy:
		starts = rt.GroupBy(src, buf, numBuckets, bucket)
	case mAggregate:
		totals = rt.Aggregate(src, numBuckets, bucket, 0, lift, comb)
	case mTopK:
		cnt = rt.TopK(src, cl.bufs[0][:topK], topK)
	case mMergeJoin:
		cnt = rt.MergeJoin(w.in[0].joinSort[:h], w.in[1].joinSort[:h], cl.runs[:h])
		items = 2 * h
	case mSortJoin:
		cnt = rt.SortJoin(cl.bufs[0][:h], cl.bufs[1][:h], cl.runs[:h], repro.SSOptions{})
		items = 2 * h
	case mRunPlan:
		res = rt.RunPlan(cl.plan, src)
	}
	l.end(sp)
	lat := time.Since(t0)
	if err != nil {
		return 0, lat, fmt.Errorf("%s: %w", name, err)
	}

	if w.corrupt != nil {
		o := svcOutput{out: buf, totals: totals}
		switch r.method {
		case mSortMany, mSortManyCtx:
			o.out = cl.bufs[0][:m]
		case mFilter, mTopK:
			o.out = cl.bufs[0][:cnt]
		case mAggregate:
			o.out = nil
		case mMergeJoin:
			o.out, o.runs = nil, cl.runs[:cnt]
		case mSortJoin:
			o.out, o.runs = cl.bufs[0][:h], cl.runs[:cnt]
		case mRunPlan:
			o.out, o.totals = res.Out, res.Aggregates
		}
		w.corrupt(o)
	}

	sp = l.begin("bench.verify")
	defer l.end(sp)
	switch r.method {
	case mSortMixedMode, mSortForkJoin, mSortSamplesort, mSortMergeMixedMode:
		err = checkSorted(buf, in.hash[n])
	case mSortMany, mSortManyCtx:
		for j := 0; j < batchSize && err == nil; j++ {
			err = checkSorted(cl.bufs[j][:m], in.hash[(j+1)*m]-in.hash[j*m])
		}
	case mFilter:
		err = checkFilter(cl.bufs[0], cnt, int(in.keepN[n]), in.keepHash[n])
	case mGroupBy:
		err = checkGroupBy(buf, starts, in.hash[n])
	case mAggregate:
		err = checkAggregate(totals, &w.w, in.agg[n])
	case mTopK:
		err = checkTopK(src, cl.bufs[0][:cnt], topK, nil)
	case mMergeJoin:
		err = checkJoin(w.in[0].joinSort[:h], w.in[1].joinSort[:h], cl.runs, cnt, w.sharedSorted[h])
	case mSortJoin:
		a, b := cl.bufs[0][:h], cl.bufs[1][:h]
		if err = checkSorted(a, w.in[0].joinHash[h]); err == nil {
			if err = checkSorted(b, w.in[1].joinHash[h]); err == nil {
				err = checkJoin(a, b, cl.runs, cnt, w.sharedUnsorted[h])
			}
		}
	case mRunPlan:
		if err = checkTopK(src, res.Out, topK, keep); err == nil {
			err = checkAggregate(res.Aggregates, &w.w, in.aggKeep[n])
		}
	}
	if err != nil {
		err = fmt.Errorf("%s (n=%d): %w", name, n, err)
	}
	return items, lat, err
}

func (w *serviceMixed) stats() counters { return readCounters(w.rt.Scheduler()) }

func (w *serviceMixed) close() { w.rt.Close() }
