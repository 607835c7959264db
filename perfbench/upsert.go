package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
	"github.com/sdl-lang/sdl/internal/wal"
)

// Upsert workload parameters (BENCHMARK.json and README.md state them).
const (
	zipfS      = 1.1 // key skew
	rmwShare   = 0.8 // share of read-modify-write operations; the rest read
	probeEvery = 8   // traced run: one probe Solve per this many ops
	engineMode = txn.Coarse
)

var (
	atomCtr = tuple.Atom("ctr")
	one     = expr.Const(tuple.Int(1))
)

// upsertSpec is one of the two upsert workloads: durable's key-led counters
// are lead-index hits whose time goes to the commit path and the WAL;
// tagged's records share one bucket, so its time goes to the matcher.
type upsertSpec struct {
	name    string
	keys    int
	clients int  // closed-loop client goroutines
	tagged  bool // <ctr, k, v> records in one bucket instead of <k, v>
	durable bool // commits go through the WAL
}

// There is no WAL-free workload over durable-upsert's key-led counters
// because its figures do not repeat on the reference host: its runs split
// between two regimes (about 40 000 and 60 000 ops/s, write p95 near 45 or
// 100 µs), a spread over ten seeds of 0.34 for ops_per_s and 0.63 for
// write_p95_us. durable-upsert issues the same requests through the same
// commit path plus a WAL append.

// runTagged uses one client: with two, every operation of one waits on the
// bucket's key latch while the other walks the bucket, so latch convoys,
// not the matcher, would set its latency.
func runTagged(cfg config) outcome {
	return runUpsert(cfg, upsertSpec{name: "tagged-upsert", keys: sized(cfg, 1_000, 200), clients: 1, tagged: true})
}

func runDurable(cfg config) outcome {
	return runUpsert(cfg, upsertSpec{name: "durable-upsert", keys: sized(cfg, 100_000, 2_000), clients: 2, durable: true})
}

// The durable workload's flush policy: fsync every 5 ms off the commit
// path. Group fsync on the commit path (wal.SyncBatch) makes every figure
// follow the shared disk's fsync latency, which on the reference host
// varies severalfold from run to run.
const (
	walSync     = wal.SyncInterval
	walInterval = 5 * time.Millisecond
)

func walOptions(m *metrics.Registry) wal.Options {
	return wal.Options{Sync: walSync, Interval: walInterval, Metrics: m}
}

func sized(cfg config, full, small int) int {
	if cfg.small {
		return small
	}
	return full
}

// record builds counter k with value v in the workload's shape.
func (sp upsertSpec) record(k, v int64) tuple.Tuple {
	if sp.tagged {
		return tuple.New(atomCtr, tuple.Int(k), tuple.Int(v))
	}
	return tuple.New(tuple.Int(k), tuple.Int(v))
}

// requests returns the workload's two transactions, parameterized by the
// environment variable k: ∃ <k, ?v>↑ → <k, v+1> and ∃ <k, ?v>.
func (sp upsertSpec) requests() (rmw, read txn.Request) {
	var pat, next pattern.Pattern
	if sp.tagged {
		pat = pattern.P(pattern.C(atomCtr), pattern.V("k"), pattern.V("v"))
		next = pattern.P(pattern.C(atomCtr), pattern.V("k"), pattern.E(expr.Add(expr.V("v"), one)))
	} else {
		pat = pattern.P(pattern.V("k"), pattern.V("v"))
		next = pattern.P(pattern.V("k"), pattern.E(expr.Add(expr.V("v"), one)))
	}
	retract := pat
	retract.Retract = true
	rmw = txn.Request{Proc: 1, View: view.Universal(), Query: pattern.Q(retract), Asserts: []pattern.Pattern{next}}
	read = txn.Request{Proc: 1, View: view.Universal(), Query: pattern.Q(pat)}
	return rmw, read
}

// upsertSystem is one set-up system under test.
type upsertSystem struct {
	store  *dataspace.Store
	engine *txn.Engine
	log    *wal.Log // nil unless durable
	dir    string
	ctr    counters
}

// setup loads the counters; a durable system then checkpoints them into a
// fresh WAL directory, reopens it and recovers into the store that serves
// the run, so set-up time covers store load, WAL open and recovery.
func (sp upsertSpec) setup(cfg config, rep int, initial []tuple.Tuple, tr *tracer) (*upsertSystem, error) {
	load := dataspace.New()
	load.Assert(tuple.Environment, initial...)
	sys := &upsertSystem{store: load}
	if sp.durable {
		sys.dir = filepath.Join(cfg.workdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(sys.dir); err != nil {
			return nil, err
		}
		first, err := wal.Open(sys.dir, walOptions(nil))
		if err != nil {
			return nil, err
		}
		if err := first.Checkpoint(load); err != nil {
			first.Close()
			return nil, err
		}
		if err := first.Close(); err != nil {
			return nil, err
		}
		sys.store = dataspace.New()
		sys.log, err = wal.Open(sys.dir, walOptions(sys.store.Metrics()))
		if err != nil {
			return nil, err
		}
		if _, err := sys.log.Recover(sys.store); err != nil {
			sys.log.Close()
			return nil, err
		}
		if tr != nil {
			sys.store.SetDurable(tracedSink{log: sys.log, t: tr})
		} else {
			sys.store.SetDurable(sys.log)
		}
	}
	if tr != nil {
		sys.ctr = watchCommits(sys.store, nil)
	}
	sys.engine = txn.New(sys.store, engineMode)
	return sys, nil
}

func (sys *upsertSystem) close() error {
	if sys.log == nil {
		return nil
	}
	err := sys.log.Close()
	if rmErr := os.RemoveAll(sys.dir); err == nil {
		err = rmErr
	}
	return err
}

// upsertClient is one closed-loop client: its key stream comes from the
// seed alone, so the same seed replays the same requests.
type upsertClient struct {
	id      int64
	rng     *rand.Rand
	zipf    *rand.Zipf
	buf     *spanBuf
	rmwTL   *timeline // recorded phase only
	readTL  *timeline
	rmwOK   int64 // committed increments, every phase
	ops     int64 // this phase
	reads   int64 // this phase
	failed  int64 // every phase
	errs    []string
	seq     int64
	visited int64
	solves  int64
}

func (c *upsertClient) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 4 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// upsertRun drives one system with the workload's clients.
type upsertRun struct {
	sys       *upsertSystem
	rmw, read txn.Request
	clients   []*upsertClient
	waiterMax atomic.Int64
}

// phase runs every client closed-loop for d. With record set, latencies
// are kept; with tracing on, spans and probe solves are recorded.
func (r *upsertRun) phase(d time.Duration, record bool) (ops, reads int64, elapsed time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range r.clients {
		c.ops, c.reads = 0, 0
		if record {
			c.rmwTL, c.readTL = newTimeline(start, windowFor(d)), newTimeline(start, windowFor(d))
		}
		wg.Add(1)
		go func(c *upsertClient) {
			defer wg.Done()
			r.client(c, deadline, record)
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, c := range r.clients {
		ops += c.ops
		reads += c.reads
	}
	return ops, reads, elapsed
}

func (r *upsertRun) client(c *upsertClient, deadline time.Time, record bool) {
	store := r.sys.store
	m := store.Metrics()
	for time.Now().Before(deadline) {
		// Key k has Zipf rank k: the hot set, and so which shards and latch
		// stripes it lands on, is the same for every seed.
		k := int64(c.zipf.Uint64())
		isRMW := c.rng.Float64() < rmwShare
		req := r.read
		if isRMW {
			req = r.rmw
		}
		req.Env = expr.Env{"k": tuple.Int(k)}
		c.seq++
		op := c.id<<40 | c.seq
		root := c.buf.begin(spanOp, op, -1)
		if root >= 0 && c.seq%probeEvery == 0 {
			probeSolve(c.buf, store, op, root, req.Query, req.Env, &c.visited, &c.solves)
			storeMax(&r.waiterMax, m.WaiterDepth().Value()+m.SubscriptionsLive().Value())
		}
		sp := c.buf.begin(spanImmediate, op, root)
		t0 := time.Now()
		res, err := r.sys.engine.Immediate(req)
		done := time.Now()
		lat := done.Sub(t0).Nanoseconds()
		c.buf.end(sp)
		c.buf.end(root)
		c.ops++
		switch {
		case err != nil:
			c.fail("key %d: %v", k, err)
		case !res.OK:
			c.fail("key %d: transaction did not commit", k)
		case isRMW:
			c.rmwOK++
			if record {
				c.rmwTL.add(done, lat)
			}
		default:
			c.reads++
			if v, ok := res.Env["v"].AsInt(); !ok || v < 0 {
				c.fail("key %d: read returned %v", k, res.Env["v"])
			}
			if record {
				c.readTL.add(done, lat)
			}
		}
	}
}

// counterValues reads every counter's key and value out of a store.
func (sp upsertSpec) counterValues(insts []dataspace.Instance) (keys, vals []int64, err error) {
	kf, vf := 0, 1
	if sp.tagged {
		kf, vf = 1, 2
	}
	for _, inst := range insts {
		t := inst.Tuple
		if t.Arity() != vf+1 {
			return nil, nil, fmt.Errorf("unexpected tuple %s", t)
		}
		k, ok1 := t.Field(kf).AsInt()
		v, ok2 := t.Field(vf).AsInt()
		if !ok1 || !ok2 {
			return nil, nil, fmt.Errorf("unexpected tuple %s", t)
		}
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals, nil
}

// verifyCounters checks the lost-increment invariant: each of the n
// counters is present exactly once and the values sum to the committed
// increments.
func (sp upsertSpec) verifyCounters(insts []dataspace.Instance, n int, committed int64) error {
	keys, vals, err := sp.counterValues(insts)
	if err != nil {
		return err
	}
	seen := make(map[int64]bool, len(keys))
	var sum int64
	for i, k := range keys {
		if seen[k] || k < 0 || k >= int64(n) {
			return fmt.Errorf("counter %d duplicated or out of range", k)
		}
		seen[k] = true
		sum += vals[i]
	}
	if len(seen) != n {
		return fmt.Errorf("%d counters, want %d", len(seen), n)
	}
	if sum != committed {
		return fmt.Errorf("counter sum %d, want %d committed increments (lost or duplicated increments)", sum, committed)
	}
	return nil
}

// recoverDir reads a closed WAL directory — its newest checkpoint and the
// record suffix after it — into a fresh store through the store's
// recovery replay, and returns the recovered instances.
func recoverDir(dir string) ([]dataspace.Instance, error) {
	st, err := wal.ReadState(dir)
	if err != nil {
		return nil, err
	}
	s := dataspace.New()
	if st.CheckpointVersion > 0 {
		if err := s.ApplyRecovered(dataspace.CommitRecord{Version: st.CheckpointVersion, Inserted: st.Base}); err != nil {
			return nil, err
		}
	}
	for _, rec := range st.Records {
		if err := s.ApplyRecovered(rec); err != nil {
			return nil, err
		}
	}
	return s.All(), nil
}

// verifySameMultiset checks that recovery reproduced the live store's
// content exactly: every acknowledged commit was recovered, and nothing
// else was.
func verifySameMultiset(live, recovered []dataspace.Instance) error {
	count := make(map[string]int, len(live))
	for _, inst := range live {
		count[inst.Tuple.String()]++
	}
	for _, inst := range recovered {
		count[inst.Tuple.String()]--
	}
	missing, extra := 0, 0
	for _, n := range count {
		switch {
		case n > 0:
			missing += n
		case n < 0:
			extra -= n
		}
	}
	if missing+extra > 0 {
		return fmt.Errorf("recovered store differs from the live store: %d tuples missing, %d extra", missing, extra)
	}
	return nil
}

func runUpsert(cfg config, sp upsertSpec) outcome {
	var o outcome
	shape, walPolicy := "<k,v>", "off"
	if sp.tagged {
		shape = "<ctr,k,v>"
	}
	if sp.durable {
		walPolicy = fmt.Sprintf("sync=%s/%s", walSync, walInterval)
	}
	st := newSetupTimer(cfg)
	o.info = fmt.Sprintf("clients=%d keys=%d shape=%s zipf_s=%.1f rmw_share=%.1f mode=%s wal=%s warmup=%s measure=%s window=%s setup_budget=%s",
		sp.clients, sp.keys, shape, zipfS, rmwShare, engineMode, walPolicy, cfg.warmup, cfg.measure, windowFor(cfg.measure), st.budget)

	initial := make([]tuple.Tuple, sp.keys)
	for k := range initial {
		initial[k] = sp.record(int64(k), 0)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var sys *upsertSystem
	for rep := 0; st.more(); rep++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				o.fail("set-up teardown: %v", err)
				return o
			}
			sys = nil
		}
		err := st.time(func() error {
			var err error
			sys, err = sp.setup(cfg, rep, initial, tr)
			return err
		})
		if err != nil {
			o.fail("set-up: %v", err)
			return o
		}
	}
	initial = nil

	r := &upsertRun{sys: sys}
	r.rmw, r.read = sp.requests()
	for i := 0; i < sp.clients; i++ {
		rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(i) + 1))
		r.clients = append(r.clients, &upsertClient{
			id:   int64(i + 1),
			rng:  rng,
			zipf: rand.NewZipf(rng, zipfS, 1, uint64(sp.keys-1)),
			buf:  tr.buffer(),
		})
	}

	r.phase(cfg.warmup, false)
	runtime.GC()
	var phases []phase
	if cfg.trace {
		half := cfg.measure / 2
		for _, traced := range []bool{false, true} {
			if traced {
				sys.store.Metrics().SetObserved(true)
				tr.on.Store(true)
			}
			before := sys.ctr.read()
			ops, reads, el := r.phase(half, false)
			after := sys.ctr.read()
			tr.on.Store(false)
			sys.store.Metrics().SetObserved(false)
			phases = append(phases, phase{before: before, after: after, ops: float64(ops), reads: float64(reads),
				opsPerSec: ratio(float64(ops), el.Seconds())})
		}
	} else {
		_, _, el := r.phase(cfg.measure, true)
		var rmwTLs, readTLs []*timeline
		for _, c := range r.clients {
			rmwTLs, readTLs = append(rmwTLs, c.rmwTL), append(readTLs, c.readTL)
			c.rmwTL, c.readTL = nil, nil
		}
		rmw, read := mergeTimelines(rmwTLs), mergeTimelines(readTLs)
		d := cfg.measure
		w, rd := rmw.quantiles("write", d), read.quantiles("read", d)
		o.e2e = append(o.e2e, rate(el, rmw, read), w[0])
		o.extra = append(o.extra, windowRate(d, rmw, read), w[1], rd[0], rd[1])
	}

	var committed int64
	for _, c := range r.clients {
		committed += c.rmwOK
		o.attempted += c.seq
		o.failed += c.failed
		o.errs = append(o.errs, c.errs...)
	}

	// Verification: the lost-increment invariant on the live store, then,
	// for the durable workload, acked => recovered.
	live := sys.store.All()
	if err := sp.verifyCounters(live, sp.keys, committed); err != nil {
		o.fail("verify: %v", err)
	}
	if sp.durable {
		if err := sys.log.Close(); err != nil {
			o.fail("wal close: %v", err)
		}
		recovered, err := recoverDir(sys.dir)
		if err != nil {
			o.fail("recover: %v", err)
		} else if err := verifySameMultiset(live, recovered); err != nil {
			o.fail("verify recovery: %v", err)
		}
	}
	live = nil

	if cfg.trace {
		lt, walParent := tr.analyze()
		path, err := tr.dump(filepath.Join(cfg.workdir, "spans"), sp.name, walParent)
		if err != nil {
			o.fail("span dump: %v", err)
		}
		var visited, solves int64
		for _, c := range r.clients {
			visited += c.visited
			solves += c.solves
		}
		o.layers = layerMetrics(layerInput{untraced: phases[0], traced: phases[1], lt: lt,
			visited: visited, solves: solves, waiterMax: r.waiterMax.Load(), spanFile: path})
	} else {
		o.e2e = append(o.e2e, st.metric(), heapMB())
	}
	if sp.durable {
		if err := os.RemoveAll(sys.dir); err != nil {
			o.fail("remove wal dir: %v", err)
		}
	}
	runtime.KeepAlive(sys)
	return o
}
