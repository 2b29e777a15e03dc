package main

import (
	"fmt"
	"time"

	"repro/internal/core"
)

const (
	// fibN sizes the tasks-fine request: the naive fib(25) call tree is
	// 242785 r = 1 tasks.
	fibN = 25
	// teamEvery is how many leaves share one team task.
	teamEvery = 64
	// teamForN is the length of the TeamFor loop of every team task.
	teamForN = 4096
)

// workerSlot is one worker's private tally, padded to a cache line so the
// tallies of different workers never share one.
type workerSlot struct {
	tasks, sum, teams, elems int64
	_                        [32]byte
}

// fibTree is a preallocated fib call tree: node i's children sit at fixed
// indexes, so a request spawns pointers into the tree and allocates
// nothing. Every call is an r = 1 task that spawns both children through a
// TaskGroup and syncs on them (Algorithm 10's sync); every teamEvery-th
// leaf also spawns a fire-and-forget team task of teamSize members that
// runs one barrier and a TeamFor over teamForN elements.
type fibTree struct {
	nodes    []fibNode
	teams    []teamTask
	slots    []workerSlot
	bodies   []func(lo, hi int) // per worker: tallies a TeamFor chunk
	teamSize int
	residue  int32 // leaves with ordinal ≡ residue (mod teamEvery) spawn a team task
}

type fibNode struct {
	tg   core.TaskGroup
	t    *fibTree
	n    int32
	leaf int32 // ordinal of the subtree's first leaf
	kids [2]int32
}

type teamTask struct{ t *fibTree }

// fibCounts returns fib(n), the number of calls of the naive fib(n) tree,
// and its number of leaves.
func fibCounts(n int) (fib, calls, leaves int) {
	if n < 2 {
		return n, 1, 1
	}
	f1, c1, l1 := fibCounts(n - 1)
	f2, c2, l2 := fibCounts(n - 2)
	return f1 + f2, 1 + c1 + c2, l1 + l2
}

func newFibTree(n, p, teamSize int, residue int32) *fibTree {
	_, calls, leaves := fibCounts(n)
	t := &fibTree{
		nodes:    make([]fibNode, calls),
		teams:    make([]teamTask, (leaves+teamEvery-1)/teamEvery),
		slots:    make([]workerSlot, p),
		teamSize: teamSize,
		residue:  residue,
	}
	for i := range t.teams {
		t.teams[i].t = t
	}
	for w := range t.slots {
		sl := &t.slots[w]
		t.bodies = append(t.bodies, func(lo, hi int) { sl.elems += int64(hi - lo) })
	}
	var build func(idx, n, leaf int) (next, nextLeaf int)
	build = func(idx, n, leaf int) (int, int) {
		nd := &t.nodes[idx]
		nd.t, nd.n, nd.leaf = t, int32(n), int32(leaf)
		if n < 2 {
			return idx + 1, leaf + 1
		}
		nd.kids[0] = int32(idx + 1)
		next, nextLeaf := build(idx+1, n-1, leaf)
		nd.kids[1] = int32(next)
		return build(next, n-2, nextLeaf)
	}
	build(0, n, 0)
	return t
}

func (f *fibNode) Threads() int { return 1 }

func (f *fibNode) Run(ctx *core.Ctx) {
	t := f.t
	sl := &t.slots[ctx.WorkerID()]
	sl.tasks++
	if f.n < 2 {
		sl.sum += int64(f.n)
		if f.leaf%teamEvery == t.residue {
			ctx.Spawn(&t.teams[f.leaf/teamEvery])
		}
		return
	}
	f.tg.Spawn(ctx, &t.nodes[f.kids[0]])
	f.tg.Spawn(ctx, &t.nodes[f.kids[1]])
	f.tg.Wait(ctx)
}

func (tt *teamTask) Threads() int { return tt.t.teamSize }

func (tt *teamTask) Run(ctx *core.Ctx) {
	t := tt.t
	ctx.Barrier()
	ctx.TeamFor(teamForN, t.bodies[ctx.WorkerID()])
	if ctx.LocalID() == 0 {
		t.slots[ctx.WorkerID()].teams++
	}
}

// want returns the exact tallies one request must produce.
func (t *fibTree) want(n int) workerSlot {
	fib, calls, leaves := fibCounts(n)
	teams := 0
	for leaf := int(t.residue); leaf < leaves; leaf += teamEvery {
		teams++
	}
	return workerSlot{tasks: int64(calls), sum: int64(fib), teams: int64(teams),
		elems: int64(teams) * teamForN}
}

// sumSlots adds the workers' tallies up.
func sumSlots(slots []workerSlot) workerSlot {
	var s workerSlot
	for _, sl := range slots {
		s.tasks += sl.tasks
		s.sum += sl.sum
		s.teams += sl.teams
		s.elems += sl.elems
	}
	return s
}

func checkTally(got, want workerSlot) error {
	if got != want {
		return fmt.Errorf("tasks-fine: tasks %d, fib %d, teams %d, team elements %d; want %d, %d, %d, %d",
			got.tasks, got.sum, got.teams, got.elems, want.tasks, want.sum, want.teams, want.elems)
	}
	return nil
}

// tasksFine measures scheduler overhead: one client runs the fib tree as
// one group per request (Scheduler.NewGroup + Group.Run).
type tasksFine struct {
	s    *core.Scheduler
	tree *fibTree
	want workerSlot
	// corrupt, when set, damages the tallies before they are verified.
	corrupt func(*workerSlot)
}

func newTasksFine(cfg config) (workload, error) {
	s := core.New(core.Options{P: cfg.p})
	w, err := newTasksFineOn(s, cfg.seed)
	if err != nil {
		s.Shutdown()
		return nil, err
	}
	return w, nil
}

// newTasksFineOn sets tasks-fine up on s; close shuts s down.
func newTasksFineOn(s *core.Scheduler, seed uint64) (*tasksFine, error) {
	tree := newFibTree(fibN, s.P(), s.MaxTeam(), int32(seed%teamEvery))
	w := &tasksFine{s: s, tree: tree, want: tree.want(fibN)}
	for i := 0; i < 2; i++ { // warm-up
		if _, _, err := w.request(0, newSpanLog(time.Now())); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *tasksFine) clients() int { return 1 }

func (w *tasksFine) request(_ int, l *spanLog) (int, time.Duration, error) {
	sp := l.begin("bench.prepare")
	clear(w.tree.slots)
	l.end(sp)
	t0 := time.Now()
	sp = l.begin("core.Group.Run")
	err := w.s.NewGroup().Run(&w.tree.nodes[0])
	l.end(sp)
	lat := time.Since(t0)
	if err != nil {
		return 0, lat, fmt.Errorf("tasks-fine: %w", err)
	}
	sp = l.begin("bench.verify")
	got := sumSlots(w.tree.slots)
	if w.corrupt != nil {
		w.corrupt(&got)
	}
	err = checkTally(got, w.want)
	l.end(sp)
	return int(got.tasks + got.teams), lat, err
}

func (w *tasksFine) stats() counters { return readCounters(w.s) }

func (w *tasksFine) close() { w.s.Shutdown() }
