package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// benchmarkFile is the subset of ../BENCHMARK.json the self-test checks
// the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyConfig(t *testing.T, trace bool) config {
	return config{
		seed:    7,
		measure: 400 * time.Millisecond,
		warmup:  100 * time.Millisecond,
		trace:   trace,
		workdir: t.TempDir(),
		small:   true,
	}
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted
// with its unit and that nothing failed.
func TestEveryMetricEmitted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	byName := map[string]workload{}
	for _, w := range workloads {
		byName[w.name] = w
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		w, ok := byName[bw.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", bw.Name)
		}
		for _, trace := range []bool{false, true} {
			o := w.run(tinyConfig(t, trace))
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d: %v", w.name, trace, o.attempted, o.failed, o.errs)
			}
			got := map[string]string{}
			ms := o.e2e
			if trace {
				ms = o.layers
			}
			for _, m := range ms {
				got[m.name] = m.unit
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			for _, m := range want {
				unit, ok := got[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, trace, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, unit, m.Unit)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", w.name, trace, len(got), len(want))
			}
			if !trace {
				for _, m := range o.e2e {
					if m.value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, m.value)
					}
				}
			}
		}
	}
}

func counterInstances(sp upsertSpec, vals []int64) []dataspace.Instance {
	out := make([]dataspace.Instance, len(vals))
	for k, v := range vals {
		out[k] = dataspace.Instance{ID: tuple.ID(k + 1), Tuple: sp.record(int64(k), v)}
	}
	return out
}

func TestVerifyCountersRejectsWrongSum(t *testing.T) {
	for _, sp := range []upsertSpec{{keys: 3}, {keys: 3, tagged: true}} {
		insts := counterInstances(sp, []int64{2, 0, 5})
		if err := sp.verifyCounters(insts, 3, 7); err != nil {
			t.Fatalf("tagged=%v: correct counters rejected: %v", sp.tagged, err)
		}
		if err := sp.verifyCounters(insts, 3, 8); err == nil {
			t.Errorf("tagged=%v: a lost increment was accepted", sp.tagged)
		}
		if err := sp.verifyCounters(insts[:2], 3, 2); err == nil {
			t.Errorf("tagged=%v: a missing counter was accepted", sp.tagged)
		}
		dup := append(insts[:2:2], dataspace.Instance{ID: 9, Tuple: sp.record(1, 5)})
		if err := sp.verifyCounters(dup, 3, 7); err == nil {
			t.Errorf("tagged=%v: a duplicated counter was accepted", sp.tagged)
		}
	}
}

func TestVerifyRecoveryRejectsDroppedRecord(t *testing.T) {
	sp := upsertSpec{keys: 4}
	live := counterInstances(sp, []int64{1, 2, 3, 4})
	if err := verifySameMultiset(live, live); err != nil {
		t.Fatalf("identical stores rejected: %v", err)
	}
	if err := verifySameMultiset(live, live[:3]); err == nil {
		t.Error("a dropped recovered record was accepted")
	}
	stale := counterInstances(sp, []int64{1, 2, 3, 3})
	if err := verifySameMultiset(live, stale); err == nil {
		t.Error("a recovered stale value was accepted")
	}
}

func TestVerifySquaresRejectsWrongSquare(t *testing.T) {
	xs := []int64{3, 1 << 20, 0}
	if err := verifySquares(xs, []int64{9, 1 << 40, 0}); err != nil {
		t.Fatalf("correct squares rejected: %v", err)
	}
	if err := verifySquares(xs, []int64{9, 1<<40 + 1, 0}); err == nil {
		t.Error("a wrong square was accepted")
	}
}

func TestVerifyRoundsRejectsMissingBarrier(t *testing.T) {
	final := []dataspace.Instance{{ID: 1, Tuple: tuple.New(atomRound, tuple.Int(5))}}
	if err := verifyRounds(5, 5, final); err != nil {
		t.Fatalf("consistent rounds rejected: %v", err)
	}
	if err := verifyRounds(5, 4, final); err == nil {
		t.Error("a round without a barrier was accepted")
	}
	leftover := append(final, dataspace.Instance{ID: 2, Tuple: tuple.New(atomJob, tuple.Int(0), tuple.Int(3))})
	if err := verifyRounds(5, 5, leftover); err == nil {
		t.Error("a leftover job was accepted")
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "society", "--trace", "2"},
		{"--workload", "society", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result", args)
		}
	}
}

// TestRateSeesStalls checks that ops_per_s counts a stalled window, which
// the window-median diagnostic drops.
func TestRateSeesStalls(t *testing.T) {
	start := time.Now()
	tl := newTimeline(start, time.Second)
	for _, w := range []int{0, 2} { // window 1 stalls
		for i := 0; i < 100; i++ {
			tl.add(start.Add(time.Duration(w)*time.Second+time.Millisecond), 1)
		}
	}
	d := 3 * time.Second
	if got := rate(d, tl); got.value != 200.0/3 || got.n != 200 {
		t.Errorf("rate = %v over %d ops, want %v over 200", got.value, got.n, 200.0/3)
	}
	if got := windowRate(d, tl); got.value != 100 {
		t.Errorf("windowRate = %v, want the median window's 100", got.value)
	}
}
