package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/sdl-lang/sdl/internal/consensus"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

const (
	societyWorkers = 64
	opTimeout      = 10 * time.Second
	clientPID      = tuple.ProcessID(1 << 40) // the client is not a society member
)

var (
	atomJob   = tuple.Atom("job")
	atomRes   = tuple.Atom("res")
	atomRound = tuple.Atom("round")
)

// societyDefs returns the worker process types. Each worker(id, r) loops:
// a delayed guard ∃ <job, id, ?x>↑ ⇒ <res, id, x*x>, then a consensus
// barrier that, once every worker offers it, advances r. The leader's
// barrier retracts <round, r> and asserts <round, r+1>; the others offer
// an empty query, so the barrier fires exactly when all have finished.
func societyDefs() []*process.Definition {
	job := process.Transact{
		Kind:    process.Delayed,
		Query:   pattern.Q(pattern.R(pattern.C(atomJob), pattern.V("id"), pattern.V("x"))),
		Asserts: []pattern.Pattern{pattern.P(pattern.C(atomRes), pattern.V("id"), pattern.E(expr.Mul(expr.V("x"), expr.V("x"))))},
	}
	advance := []process.Action{process.Let{Name: "r", Expr: expr.Add(expr.V("r"), one)}}
	leaderBarrier := process.Transact{
		Kind:    process.Consensus,
		Query:   pattern.Q(pattern.R(pattern.C(atomRound), pattern.V("r"))),
		Asserts: []pattern.Pattern{pattern.P(pattern.C(atomRound), pattern.E(expr.Add(expr.V("r"), one)))},
		Actions: advance,
	}
	barrier := process.Transact{Kind: process.Consensus, Query: anything, Actions: advance}
	body := func(b process.Transact) []process.Stmt {
		return []process.Stmt{job, process.Repeat{Branches: []process.Branch{{Guard: b, Body: []process.Stmt{job}}}}}
	}
	params := []string{"id", "r"}
	return []*process.Definition{
		{Name: "Leader", Params: params, Body: body(leaderBarrier)},
		{Name: "Worker", Params: params, Body: body(barrier)},
	}
}

// societySystem is one set-up society.
type societySystem struct {
	store   *dataspace.Store
	engine  *txn.Engine
	cons    *consensus.Manager
	rt      *process.Runtime
	ctr     counters
	barrier *barrierClock
	spawns  []float64 // µs per Spawn call
}

// barrierClock times each barrier from the commit of a round's last result
// to the commit that asserts the next <round, r>, through Store.OnCommit.
// Timing both ends at their commits makes the figure independent of when
// the client goroutine happens to be scheduled.
type barrierClock struct {
	epoch   time.Time
	lastRes atomic.Int64 // ns since epoch of the latest <res, ...> commit
	latest  atomic.Int64 // ns from last result to the latest barrier commit
}

func (b *barrierClock) observe(rec dataspace.CommitRecord) {
	for _, inst := range rec.Inserted {
		if inst.Tuple.Arity() == 0 {
			continue
		}
		switch lead := inst.Tuple.Field(0); {
		case lead.Equal(atomRes):
			b.lastRes.Store(int64(time.Since(b.epoch)))
		case lead.Equal(atomRound):
			b.latest.Store(int64(time.Since(b.epoch)) - b.lastRes.Load())
		}
	}
}

func (sys *societySystem) close() {
	sys.rt.Shutdown()
	sys.cons.Close()
}

// setupSociety builds the runtime, spawns every worker and waits until
// each is blocked on its job guard.
func setupSociety(workers int, traced bool) (*societySystem, error) {
	store := dataspace.New()
	engine := txn.New(store, engineMode)
	cons := consensus.NewManager(engine)
	sys := &societySystem{store: store, engine: engine, cons: cons, rt: process.NewRuntime(engine, cons),
		barrier: &barrierClock{epoch: time.Now()}}
	store.OnCommit(sys.barrier.observe)
	if traced {
		sys.ctr = watchCommits(store, cons)
	}
	for _, def := range societyDefs() {
		if err := sys.rt.Define(def); err != nil {
			sys.close()
			return nil, err
		}
	}
	store.Assert(tuple.Environment, tuple.New(atomRound, tuple.Int(0)))
	for i := 0; i < workers; i++ {
		name := "Worker"
		if i == 0 {
			name = "Leader"
		}
		t0 := time.Now()
		if _, err := sys.rt.Spawn(name, tuple.Int(int64(i)), tuple.Int(0)); err != nil {
			sys.close()
			return nil, err
		}
		sys.spawns = append(sys.spawns, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	deadline := time.Now().Add(opTimeout)
	for store.Metrics().SubscriptionsLive().Value() < int64(workers) {
		if time.Now().After(deadline) {
			sys.close()
			return nil, errors.New("workers did not block on their job guards")
		}
		runtime.Gosched()
	}
	return sys, nil
}

// societyClient issues the rounds: one job per worker, then every result,
// then the barrier's round tuple, each call waiting for its reply.
type societyClient struct {
	sys     *societySystem
	workers int
	rng     *rand.Rand
	buf     *spanBuf
	round   int64
	jobTL   *timeline // recorded phase only
	barTL   *timeline
	ops     int64 // client operations issued: jobs and barrier waits
	failed  int64
	errs    []string
	visited int64
	solves  int64
	depth   atomic.Int64 // traced: deepest waiter count seen
}

func (c *societyClient) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 4 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

var (
	anything  = pattern.Query{Quant: pattern.Exists}
	jobAssert = []pattern.Pattern{pattern.P(pattern.C(atomJob), pattern.V("i"), pattern.V("x"))}
	resQuery  = pattern.Q(pattern.R(pattern.C(atomRes), pattern.V("i"), pattern.V("y")))
	rndQuery  = pattern.Q(pattern.P(pattern.C(atomRound), pattern.V("r")))
)

func (c *societyClient) delayed(q pattern.Query, env expr.Env) (txn.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return c.sys.engine.Delayed(ctx, txn.Request{Proc: clientPID, View: view.Universal(), Env: env, Query: q})
}

func (c *societyClient) sampleDepth() {
	if c.buf == nil || !c.buf.t.on.Load() {
		return
	}
	m := c.sys.store.Metrics()
	storeMax(&c.depth, m.WaiterDepth().Value()+m.SubscriptionsLive().Value())
}

// roundTrip runs one round; it returns false when an operation failed and
// the society can no longer be trusted to make progress.
func (c *societyClient) roundTrip(record bool) bool {
	n := c.workers
	xs := make([]int64, n)
	t0 := make([]time.Time, n)
	roots := make([]int32, n)
	ops := make([]int64, n)
	c.sampleDepth()
	for i := 0; i < n; i++ {
		xs[i] = c.rng.Int63n(1 << 30)
		c.ops++
		ops[i] = c.round<<16 | int64(i)
		roots[i] = c.buf.begin(spanOp, ops[i], -1)
		sp := c.buf.begin(spanImmediate, ops[i], roots[i])
		t0[i] = time.Now()
		res, err := c.sys.engine.Immediate(txn.Request{Proc: clientPID, View: view.Universal(),
			Env: expr.Env{"i": tuple.Int(int64(i)), "x": tuple.Int(xs[i])}, Query: anything, Asserts: jobAssert})
		c.buf.end(sp)
		if err != nil || !res.OK {
			c.fail("round %d: assert job %d: ok=%v err=%v", c.round, i, res.OK, err)
			return false
		}
	}
	c.sampleDepth()
	// Results are awaited in completion order: each wait takes whichever
	// result is there, so a job's latency ends when its result is first
	// observable rather than when the client gets round to it.
	ys := make([]int64, n)
	seen := make([]bool, n)
	var last time.Time
	for k := 0; k < n; k++ {
		if roots[0] >= 0 && k%probeEvery == 0 {
			probeSolve(c.buf, c.sys.store, ops[0], roots[0], resQuery, nil, &c.visited, &c.solves)
		}
		sp := c.buf.begin(spanDelayed, ops[0], roots[0])
		res, err := c.delayed(resQuery, nil)
		last = time.Now()
		c.buf.end(sp)
		if err != nil || !res.OK {
			c.fail("round %d: await result: ok=%v err=%v", c.round, res.OK, err)
			return false
		}
		i64, _ := res.Env["i"].AsInt()
		i := int(i64)
		if i < 0 || i >= n || seen[i] {
			c.fail("round %d: unexpected result for worker %d", c.round, i64)
			return false
		}
		seen[i] = true
		ys[i], _ = res.Env["y"].AsInt()
		c.buf.adopt(sp, ops[i], roots[i])
		c.buf.end(roots[i])
		if record {
			c.jobTL.add(last, last.Sub(t0[i]).Nanoseconds())
		}
	}
	if err := verifySquares(xs, ys); err != nil {
		c.fail("round %d: %v", c.round, err)
	}

	c.ops++
	bop := c.round<<16 | 0xffff
	root := c.buf.begin(spanOp, bop, -1)
	sp := c.buf.begin(spanDelayed, bop, root)
	res, err := c.delayed(rndQuery, expr.Env{"r": tuple.Int(c.round + 1)})
	done := time.Now()
	// The barrier's commit ran its hooks before the tuple became visible.
	lat := c.sys.barrier.latest.Load()
	c.buf.end(sp)
	c.buf.end(root)
	if err != nil || !res.OK {
		c.fail("round %d: await barrier: ok=%v err=%v", c.round, res.OK, err)
		return false
	}
	c.round++
	if record {
		c.barTL.add(done, lat)
	}
	return true
}

// phase runs whole rounds until d has passed and returns the jobs and
// barrier waits completed.
func (c *societyClient) phase(d time.Duration, record bool) (jobs, barriers int64, elapsed time.Duration, ok bool) {
	start := time.Now()
	r0 := c.round
	if record {
		c.jobTL, c.barTL = newTimeline(start, windowFor(d)), newTimeline(start, windowFor(d))
	}
	for time.Since(start) < d {
		if !c.roundTrip(record) {
			return (c.round - r0) * int64(c.workers), c.round - r0, time.Since(start), false
		}
	}
	return (c.round - r0) * int64(c.workers), c.round - r0, time.Since(start), true
}

// verifySquares checks every worker's result: y = x*x.
func verifySquares(xs, ys []int64) error {
	for i := range xs {
		if ys[i] != xs[i]*xs[i] {
			return fmt.Errorf("worker %d returned %d for job %d, want %d", i, ys[i], xs[i], xs[i]*xs[i])
		}
	}
	return nil
}

// verifyRounds checks that each completed round fired exactly one
// consensus barrier and that the dataspace holds only <round, rounds>.
func verifyRounds(rounds int64, fires uint64, insts []dataspace.Instance) error {
	if uint64(rounds) != fires {
		return fmt.Errorf("%d rounds completed but %d barriers fired", rounds, fires)
	}
	if len(insts) != 1 || !insts[0].Tuple.Equal(tuple.New(atomRound, tuple.Int(rounds))) {
		return fmt.Errorf("dataspace after %d rounds holds %d tuples, want only <round, %d>", rounds, len(insts), rounds)
	}
	return nil
}

func runSociety(cfg config) outcome {
	workers := societyWorkers
	if cfg.small {
		workers = 8
	}
	st := newSetupTimer(cfg)
	var o outcome
	o.info = fmt.Sprintf("clients=1 workers=%d mode=%s warmup=%s measure=%s window=%s setup_budget=%s",
		workers, engineMode, cfg.warmup, cfg.measure, windowFor(cfg.measure), st.budget)

	var (
		sys    *societySystem
		spawns []float64
	)
	for st.more() {
		if sys != nil {
			sys.close()
			sys = nil
		}
		err := st.time(func() error {
			var err error
			sys, err = setupSociety(workers, cfg.trace)
			return err
		})
		if err != nil {
			o.fail("set-up: %v", err)
			return o
		}
		spawns = append(spawns, sys.spawns...)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	c := &societyClient{sys: sys, workers: workers, rng: rand.New(rand.NewSource(cfg.seed)), buf: tr.buffer()}
	_, _, _, ok := c.phase(cfg.warmup, false)
	runtime.GC()
	var phases []phase
	if ok && cfg.trace {
		for _, traced := range []bool{false, true} {
			if traced {
				sys.store.Metrics().SetObserved(true)
				tr.on.Store(true)
			}
			before := sys.ctr.read()
			var jobs, barriers int64
			var el time.Duration
			jobs, barriers, el, ok = c.phase(cfg.measure/2, false)
			after := sys.ctr.read()
			tr.on.Store(false)
			sys.store.Metrics().SetObserved(false)
			phases = append(phases, phase{before: before, after: after, ops: float64(jobs), reads: float64(barriers),
				opsPerSec: ratio(float64(jobs), el.Seconds())})
			if !ok {
				break
			}
		}
	} else if ok {
		var el time.Duration
		_, _, el, ok = c.phase(cfg.measure, true)
		d := cfg.measure
		w, rd := c.jobTL.quantiles("write", d), c.barTL.quantiles("read", d)
		o.e2e = append(o.e2e, rate(el, c.jobTL), w[0])
		o.extra = append(o.extra, windowRate(d, c.jobTL), w[1], rd[0], rd[1])
		c.jobTL, c.barTL = nil, nil
	}
	o.attempted, o.failed, o.errs = c.ops, c.failed, c.errs
	if !ok {
		sys.close()
		return o
	}

	fires := sys.cons.Fires()
	if err := verifyRounds(c.round, fires, sys.store.All()); err != nil {
		o.fail("verify: %v", err)
	}
	for _, err := range sys.rt.Errors() {
		o.fail("process: %v", err)
	}

	if cfg.trace {
		lt, walParent := tr.analyze()
		path, err := tr.dump(filepath.Join(cfg.workdir, "spans"), "society", walParent)
		if err != nil {
			o.fail("span dump: %v", err)
		}
		o.layers = layerMetrics(layerInput{untraced: phases[0], traced: phases[1], lt: lt,
			visited: c.visited, solves: c.solves, spawnUS: median(spawns), waiterMax: c.depth.Load(), spanFile: path})
	} else {
		o.e2e = append(o.e2e, st.metric(), heapMB())
	}
	sys.close()
	return o
}
