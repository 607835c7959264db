package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/wal"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanOp        spanKind = iota // one client operation (root)
	spanSolve                     // pattern.Solve against Store.Snapshot
	spanImmediate                 // txn.Engine.Immediate
	spanDelayed                   // txn.Engine.Delayed
	spanWalAppend                 // wal.Log.Append, through tracedSink
	spanWalWait                   // wal.Log.WaitDurable, through tracedSink
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "pattern.solve", "txn.immediate", "txn.delayed", "wal.append", "wal.wait"}

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent indexes the same buffer (-1 for a
// root). WAL spans are recorded on whichever goroutine runs the commit and
// get their op and parent later, by time containment.
type span struct {
	op     int64
	start  int64
	end    int64
	parent int32
	kind   spanKind
}

// maxSpans bounds a traced run's span memory to 16 MiB (32-byte spans).
// Once a run has recorded this many spans, recording stops for every layer
// at once, so the layer times all cover the same first part of the traced
// half; trace.spans reports how many were dropped.
const maxSpans = 1 << 19

// spanBuf is one client goroutine's span buffer; only its owner writes it.
type spanBuf struct {
	t     *tracer
	spans []span
}

// begin opens a span and returns its index (-1 when not recording).
func (b *spanBuf) begin(kind spanKind, op int64, parent int32) int32 {
	if b == nil || !b.t.on.Load() || (parent < 0 && kind != spanOp) || !b.t.take() {
		return -1
	}
	b.spans = append(b.spans, span{op: op, parent: parent, kind: kind, start: b.t.now()})
	return int32(len(b.spans) - 1)
}

// adopt moves span i to the given op and parent once the caller learns
// which operation it served.
func (b *spanBuf) adopt(i int32, op int64, parent int32) {
	if i >= 0 && parent >= 0 {
		b.spans[i].op, b.spans[i].parent = op, parent
	}
}

func (b *spanBuf) end(i int32) {
	if i >= 0 {
		b.spans[i].end = b.t.now()
	}
}

// tracer owns every span of a traced run. Recording is off until on is
// set, so one system can serve an untraced and a traced phase.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	left    atomic.Int64 // spans still to record
	dropped atomic.Int64

	mu     sync.Mutex
	bufs   []*spanBuf
	shared []span // WAL spans, from any committing goroutine
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.left.Store(maxSpans)
	return t
}

// recording reports whether spans are being recorded.
func (t *tracer) recording() bool { return t.on.Load() && t.left.Load() > 0 }

// take reserves room for one span, counting it as dropped when the run's
// budget is spent.
func (t *tracer) take() bool {
	if t.left.Add(-1) < 0 {
		t.dropped.Add(1)
		return false
	}
	return true
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// buffer returns a new per-client buffer, or nil for a nil tracer (an
// untraced run), whose begin is then a no-op.
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (t *tracer) addShared(kind spanKind, start, end int64) {
	if !t.take() {
		return
	}
	t.mu.Lock()
	t.shared = append(t.shared, span{kind: kind, start: start, end: end, parent: -1})
	t.mu.Unlock()
}

// tracedSink is the benchmark's dataspace.DurableSink: it forwards to the
// WAL and, while the tracer records, times each call.
type tracedSink struct {
	log *wal.Log
	t   *tracer
}

func (s tracedSink) Append(rec dataspace.CommitRecord) uint64 {
	if !s.t.recording() {
		return s.log.Append(rec)
	}
	start := s.t.now()
	tok := s.log.Append(rec)
	s.t.addShared(spanWalAppend, start, s.t.now())
	return tok
}

func (s tracedSink) WaitDurable(tok uint64) {
	if !s.t.recording() {
		s.log.WaitDurable(tok)
		return
	}
	start := s.t.now()
	s.log.WaitDurable(tok)
	s.t.addShared(spanWalWait, start, s.t.now())
}

// countingSource wraps a store reader as the pattern.Source of a probe
// Solve and counts the tuples it delivers to the matcher. It forwards the
// reader's field-index and estimator paths so the matcher plans exactly as
// it does inside the engine.
type countingSource struct {
	r       dataspace.Reader
	visited *int64
}

func (c countingSource) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	c.r.Scan(arity, lead, leadKnown, func(id tuple.ID, t tuple.Tuple) bool {
		*c.visited++
		return fn(id, t)
	})
}

func (c countingSource) ScanFields(arity int, sels []pattern.FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
	count := func(id tuple.ID, t tuple.Tuple) bool {
		*c.visited++
		return fn(id, t)
	}
	if fsrc, ok := c.r.(pattern.FieldSource); ok {
		fsrc.ScanFields(arity, sels, count)
		return
	}
	c.r.Scan(arity, tuple.Value{}, false, count)
}

func (c countingSource) JoinEstimator() pattern.Estimator {
	if p, ok := c.r.(pattern.EstimatorProvider); ok {
		return p.JoinEstimator()
	}
	return nil
}

// probeSolve times pattern.Solve on a workload query against a store
// snapshot, as a child span of the client's operation.
func probeSolve(b *spanBuf, s *dataspace.Store, op int64, parent int32, q pattern.Query, env expr.Env, visited, solves *int64) {
	sp := b.begin(spanSolve, op, parent)
	if sp < 0 {
		return
	}
	s.Snapshot(func(r dataspace.Reader) {
		_, _, _ = pattern.Solve(q, countingSource{r: r, visited: visited}, env)
	})
	b.end(sp)
	*solves++
}

// layerTimes is the per-kind outcome of a trace: call counts, total self
// time (duration minus the time covered by child spans) and every
// duration, for percentiles.
type layerTimes struct {
	calls   [numSpanKinds]int64
	selfNS  [numSpanKinds]int64
	durs    [numSpanKinds]latencies
	dropped int64
	spans   int
}

// selfUS returns the mean self time of a kind in microseconds.
func (lt *layerTimes) selfUS(k spanKind) float64 {
	return ratio(float64(lt.selfNS[k])/1e3, float64(lt.calls[k]))
}

type spanRef struct{ buf, idx int32 }

// analyze attributes WAL spans to the client operations that contain them
// in time and computes each layer's self time. A WAL span goes to the
// txn.immediate span that contains it and started last; one no client call
// contains (a group-commit leader's append finishing after its own call)
// stays unattributed and counts only towards the WAL layer.
func (t *tracer) analyze() (*layerTimes, map[int32]spanRef) {
	lt := &layerTimes{dropped: t.dropped.Load()}
	var imms []spanRef
	for bi, b := range t.bufs {
		for i, s := range b.spans {
			if s.kind == spanImmediate {
				imms = append(imms, spanRef{int32(bi), int32(i)})
			}
		}
	}
	at := func(r spanRef) span { return t.bufs[r.buf].spans[r.idx] }
	sort.Slice(imms, func(i, j int) bool { return at(imms[i]).start < at(imms[j]).start })

	walParent := make(map[int32]spanRef) // shared index -> containing immediate
	walKids := make(map[spanRef][]span)
	for wi, w := range t.shared {
		n := sort.Search(len(imms), func(i int) bool { return at(imms[i]).start > w.start })
		for i := n - 1; i >= 0 && i >= n-16; i-- {
			if p := at(imms[i]); p.end >= w.end {
				walParent[int32(wi)] = imms[i]
				walKids[imms[i]] = append(walKids[imms[i]], w)
				t.shared[wi].op = p.op
				break
			}
		}
	}

	for bi, b := range t.bufs {
		childNS := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				childNS[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			ref := spanRef{int32(bi), int32(i)}
			if kids := walKids[ref]; len(kids) > 0 {
				childNS[i] += coveredNS(s, kids)
			}
			d := s.end - s.start
			lt.calls[s.kind]++
			lt.selfNS[s.kind] += d - childNS[i]
			lt.durs[s.kind] = append(lt.durs[s.kind], d)
		}
		lt.spans += len(b.spans)
	}
	for _, s := range t.shared {
		d := s.end - s.start
		lt.calls[s.kind]++
		lt.selfNS[s.kind] += d
		lt.durs[s.kind] = append(lt.durs[s.kind], d)
	}
	lt.spans += len(t.shared)
	return lt, walParent
}

// coveredNS returns how much of parent's interval the union of kids covers.
func coveredNS(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// dump writes every span, one per line, to dir/<name>.spans: id, parent
// id (-1 for a root or an unattributed WAL span), op id, layer, start and
// end in nanoseconds since the run began.
func (t *tracer) dump(dir, name string, walParent map[int32]spanRef) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	offsets := make([]int64, len(t.bufs))
	var next int64
	for bi, b := range t.bufs {
		offsets[bi] = next
		next += int64(len(b.spans))
	}
	for bi, b := range t.bufs {
		for i, s := range b.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = offsets[bi] + int64(s.parent)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", offsets[bi]+int64(i), parent, s.op, spanNames[s.kind], s.start, s.end)
		}
	}
	for wi, s := range t.shared {
		parent := int64(-1)
		if p, ok := walParent[int32(wi)]; ok {
			parent = offsets[p.buf] + int64(p.idx)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", next+int64(wi), parent, s.op, spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
