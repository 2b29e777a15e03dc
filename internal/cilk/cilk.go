// Package cilk implements a Cilk-style work-stealing scheduler, the
// substitute for the closed-source Cilk++ runtime the paper compares against
// (Tables 1, 2, 5, 6).
//
// The Cilk scheduler model (Blumofe et al., "Cilk: An efficient multithreaded
// runtime system") differs from the paper's own work-stealer in two ways this
// package reproduces:
//
//   - thieves steal exactly ONE task from the top of a uniformly random
//     victim's deque (no bulk transfer), and
//   - the victim distribution is re-drawn on every attempt with only a brief
//     yield between attempts (Cilk thieves spin aggressively rather than
//     backing off into long sleeps).
//
// Cilk's work-first execution order (child runs immediately, continuation is
// stealable) cannot be expressed without continuations; like every
// help-first approximation, spawned children go to the deque bottom and the
// parent continues, which preserves the depth-first local execution order
// that Cilk's performance model relies on.
package cilk

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/deque"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Task is a single-threaded unit of work.
type Task interface {
	Run(ctx *Ctx)
}

type funcTask func(*Ctx)

func (f funcTask) Run(ctx *Ctx) { f(ctx) }

// Func adapts a function to the Task interface.
func Func(fn func(*Ctx)) Task { return funcTask(fn) }

// Ctx is the execution context of a running task.
type Ctx struct {
	w *worker
}

// Spawn pushes t onto the executing worker's deque (the cilk_spawn of the
// child task in a help-first scheduler).
func (c *Ctx) Spawn(t Task) { c.w.spawn(t) }

// WorkerID returns the executing worker's id.
func (c *Ctx) WorkerID() int { return c.w.id }

// SyncGroup emulates cilk_sync for a task's children: Wait helps by running
// local work until all children registered in the group have finished.
type SyncGroup struct {
	pending atomic.Int64
}

// Spawn submits t as a child tracked by the group.
func (g *SyncGroup) Spawn(ctx *Ctx, t Task) {
	g.pending.Add(1)
	ctx.Spawn(Func(func(c *Ctx) {
		defer g.pending.Add(-1)
		t.Run(c)
	}))
}

// Wait blocks (helping) until all children of the group completed.
func (g *SyncGroup) Wait(ctx *Ctx) {
	w := ctx.w
	var bo backoff.Backoff
	for g.pending.Load() > 0 {
		if n := w.q.PopBottom(); n != nil {
			w.run(n)
			bo.Reset()
			continue
		}
		if w.stealOne() {
			bo.Reset()
			continue
		}
		bo.Wait()
	}
}

// Options configures the scheduler.
type Options struct {
	// P is the number of workers. Default: runtime.NumCPU().
	P int
	// PinOSThreads locks workers to OS threads.
	PinOSThreads bool
	// Seed seeds victim selection.
	Seed uint64
}

type node struct{ task Task }

type worker struct {
	id    int
	sched *Scheduler
	q     *deque.Deque[node]
	st    stats.Worker
	bo    backoff.Backoff
	rng   uint64
}

// Scheduler is a Cilk-style steal-one randomized work-stealing scheduler.
type Scheduler struct {
	opts     Options
	workers  []*worker
	inflight atomic.Int64
	done     atomic.Bool
	wg       sync.WaitGroup

	injectMu sync.Mutex
	inject   []*node
}

// New starts the scheduler's workers.
func New(opts Options) *Scheduler {
	if opts.P <= 0 {
		opts.P = runtime.NumCPU()
	}
	topo.EnsureGOMAXPROCS(opts.P)
	s := &Scheduler{opts: opts}
	s.workers = make([]*worker, opts.P)
	for i := range s.workers {
		s.workers[i] = &worker{
			id:    i,
			sched: s,
			q:     deque.New[node](),
			rng:   opts.Seed ^ (uint64(i)+1)*0xd1342543de82ef95,
		}
	}
	s.wg.Add(opts.P)
	for _, w := range s.workers {
		go w.loop()
	}
	return s
}

// P returns the number of workers.
func (s *Scheduler) P() int { return len(s.workers) }

// Spawn submits a task from outside the scheduler.
func (s *Scheduler) Spawn(t Task) {
	s.inflight.Add(1)
	s.injectMu.Lock()
	s.inject = append(s.inject, &node{task: t})
	s.injectMu.Unlock()
}

// Wait blocks until all tasks have completed.
func (s *Scheduler) Wait() {
	var bo backoff.Backoff
	for s.inflight.Load() > 0 {
		bo.Wait()
	}
}

// Run submits t and waits for quiescence.
func (s *Scheduler) Run(t Task) {
	s.Spawn(t)
	s.Wait()
}

// Shutdown stops all workers (idempotent; abandons outstanding work).
func (s *Scheduler) Shutdown() {
	s.done.Store(true)
	s.wg.Wait()
}

// Stats aggregates all worker counters.
func (s *Scheduler) Stats() stats.Snapshot {
	var total stats.Snapshot
	for _, w := range s.workers {
		total.Add(w.st.Snapshot())
	}
	return total
}

func (s *Scheduler) takeInjected(w *worker) bool {
	s.injectMu.Lock()
	if len(s.inject) == 0 {
		s.injectMu.Unlock()
		return false
	}
	n := s.inject[0]
	s.inject = s.inject[1:]
	s.injectMu.Unlock()
	w.q.PushBottom(n)
	return true
}

func (w *worker) spawn(t Task) {
	w.sched.inflight.Add(1)
	w.q.PushBottom(&node{task: t})
	w.st.Spawns.Add(1)
}

func (w *worker) rand() uint64 {
	w.rng += 0x9e3779b97f4a7c15
	z := w.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (w *worker) run(n *node) {
	ctx := Ctx{w: w}
	w.st.TasksRun.Add(1)
	n.task.Run(&ctx)
	w.sched.taskDone()
}

func (s *Scheduler) taskDone() { s.inflight.Add(-1) }

// loop: run local work depth-first; steal one task at a time otherwise.
// Thieves yield between attempts instead of sleeping (Cilk-style spinning),
// escalating to short sleeps only after many consecutive failures to stay
// fair under Go's runtime.
func (w *worker) loop() {
	defer w.sched.wg.Done()
	if w.sched.opts.PinOSThreads {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	s := w.sched
	fails := 0
	for !s.done.Load() {
		if n := w.q.PopBottom(); n != nil {
			w.run(n)
			fails = 0
			w.bo.Reset()
			continue
		}
		if s.takeInjected(w) {
			continue
		}
		if w.stealOne() {
			fails = 0
			w.bo.Reset()
			continue
		}
		fails++
		w.st.FailedAttempts.Add(1)
		if fails < 64 {
			runtime.Gosched()
		} else {
			w.st.Backoffs.Add(1)
			w.bo.Wait()
		}
	}
}

// stealOne steals a single task from a uniformly random victim and runs it.
func (w *worker) stealOne() bool {
	s := w.sched
	p := len(s.workers)
	if p == 1 {
		return false
	}
	w.st.StealAttempts.Add(1)
	v := int(w.rand() % uint64(p-1))
	if v >= w.id {
		v++
	}
	n := s.workers[v].q.PopTop()
	if n == nil {
		return false
	}
	w.st.Steals.Add(1)
	w.st.TasksStolen.Add(1)
	w.run(n)
	return true
}
