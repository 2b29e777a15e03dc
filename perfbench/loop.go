package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer: the spans of one
// request share req, and parent indexes the enclosing span of the same log
// (−1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog records the spans of one goroutine in memory. A disabled log
// costs one branch per call, so untraced runs carry no tracing work.
type spanLog struct {
	on    bool
	epoch time.Time
	req   int64
	cur   int32
	spans []span
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch, cur: -1} }

// begin opens a span named name under the current one and returns its
// index for end (−1 when the log is off).
func (l *spanLog) begin(name string) int32 {
	if !l.on {
		return -1
	}
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, Req: l.req, Parent: l.cur,
		Start: int64(time.Since(l.epoch))})
	l.cur = i
	return i
}

func (l *spanLog) end(i int32) {
	if i < 0 {
		return
	}
	l.spans[i].End = int64(time.Since(l.epoch))
	l.cur = l.spans[i].Parent
}

// workload is one closed-loop traffic mix on one scheduler.
type workload interface {
	// clients returns the number of request-issuing goroutines.
	clients() int
	// request issues client c's next request and waits for its reply. It
	// returns the items the request covered, the latency of the call into
	// the system (input preparation and verification excluded), and a
	// non-nil error when the output failed verification.
	request(c int, l *spanLog) (items int, lat time.Duration, err error)
	// stats reads the scheduler's public counters.
	stats() counters
	close()
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	attempted, failed int
	items             int64
	elapsed           time.Duration
	steal             float64   // steal share over the window
	latMs             []float64 // per request, sorted ascending
	allocBytes        uint64
	firstErr          error
	// Traced runs alternate tracing per request pair; wallOn/wallOff sum
	// the request wall times of each half.
	wallOn, wallOff time.Duration
	nOn, nOff       int
	spans           []span
	before, after   counters
}

// runLoop drives w's clients back to back for d. Each client issues its
// next request only after the previous reply. With traced set, spans are
// recorded on every other pair of requests, so the two halves see the same
// mix and their wall times give the tracing overhead.
func runLoop(w workload, d time.Duration, traced bool, epoch time.Time) loopResult {
	nc := w.clients()
	type clientRes struct {
		loopResult
		log *spanLog
	}
	res := make([]clientRes, nc)
	for c := range res {
		res[c].latMs = make([]float64, 0, 1<<16)
		res[c].log = newSpanLog(epoch)
		res[c].log.spans = make([]span, 0, 1<<16)
	}
	var out loopResult
	out.before = w.stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	clk := startStealClock()
	deadline := clk.t0.Add(d)
	var wg sync.WaitGroup
	for c := range res {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			for seq := int64(0); seq == 0 || time.Now().Before(deadline); seq++ {
				r.log.on = traced && seq&2 != 0
				r.log.req = int64(c)<<40 | seq
				t0 := time.Now()
				root := r.log.begin("request")
				items, lat, err := w.request(c, r.log)
				r.log.end(root)
				wall := time.Since(t0)
				if r.log.on {
					r.wallOn += wall
					r.nOn++
				} else {
					r.wallOff += wall
					r.nOff++
				}
				r.attempted++
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.items += int64(items)
				r.latMs = append(r.latMs, float64(lat)/1e6)
			}
		}(c)
	}
	wg.Wait()
	out.elapsed, out.steal = clk.stop()
	runtime.ReadMemStats(&ms1)
	out.after = w.stats()
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, r := range res {
		out.attempted += r.attempted
		out.failed += r.failed
		out.items += r.items
		out.latMs = append(out.latMs, r.latMs...)
		out.wallOn += r.wallOn
		out.wallOff += r.wallOff
		out.nOn += r.nOn
		out.nOff += r.nOff
		out.spans = appendSpans(out.spans, r.log.spans)
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	sort.Float64s(out.latMs)
	return out
}

// mergeRounds pools the windows of a run's rounds into one: counts and
// times add up, and the latencies form one sample. With excludeSteal set,
// each round's times count only for the share 1−s of them that the host
// ran the machine, s being the round's steal share (see stealClock). The
// pooled steal share is that of the rounds together. Counters and spans
// are not pooled.
func mergeRounds(lrs []loopResult, excludeSteal bool) loopResult {
	var out loopResult
	var wall, ran float64
	for _, lr := range lrs {
		share := 1.0
		if excludeSteal {
			share = 1 - lr.steal
		}
		out.attempted += lr.attempted
		out.failed += lr.failed
		out.items += lr.items
		out.allocBytes += lr.allocBytes
		out.elapsed += time.Duration(float64(lr.elapsed) * share)
		for _, x := range lr.latMs {
			out.latMs = append(out.latMs, x*share)
		}
		if out.firstErr == nil {
			out.firstErr = lr.firstErr
		}
		wall += lr.elapsed.Seconds()
		ran += lr.elapsed.Seconds() * (1 - lr.steal)
	}
	if wall > 0 {
		out.steal = 1 - ran/wall
	}
	sort.Float64s(out.latMs)
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

const (
	// tailSamples is how many samples must lie beyond the reported tail.
	tailSamples = 10
	// tailMaxPct caps the tail percentile: further out, the tail of a
	// window of many small requests is set by the odd preemption of the
	// machine rather than by the program.
	tailMaxPct = 90
)

// tail returns the highest percentile of the ascending sample xs, up to
// the tailMaxPct-th, that still has tailSamples samples beyond it, and that
// percentile's rank as a percentage. With too few samples it returns the
// maximum.
func tail(xs []float64) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	i := min(n-1-tailSamples, (tailMaxPct*n+99)/100-1)
	if i < 0 {
		i = n - 1
	}
	return xs[i], 100 * float64(i+1) / float64(n)
}

// appendSpans appends the spans of one log to dst, rebasing their parent
// indexes onto dst.
func appendSpans(dst, src []span) []span {
	off := int32(len(dst))
	for _, s := range src {
		if s.Parent >= 0 {
			s.Parent += off
		}
		dst = append(dst, s)
	}
	return dst
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover (children of one span never overlap, because a log
// belongs to one goroutine).
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}
