package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/consensus"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/metrics"
)

// probe is a reading of every counter the layer metrics difference: the
// store's metrics registry, the Go runtime's allocator, the benchmark's
// commit hook and the consensus manager's fire count.
type probe struct {
	snap    metrics.Snapshot
	mem     runtime.MemStats
	commits uint64
	fires   uint64
}

// counters is the benchmark's window onto a system under test.
type counters struct {
	store   *dataspace.Store
	commits *atomic.Uint64     // Store.OnCommit invocations
	cons    *consensus.Manager // nil without a consensus workload
}

// watchCommits registers the benchmark's commit hook; it must run before
// the store is shared.
func watchCommits(s *dataspace.Store, cons *consensus.Manager) counters {
	c := counters{store: s, commits: new(atomic.Uint64), cons: cons}
	s.OnCommit(func(dataspace.CommitRecord) { c.commits.Add(1) })
	return c
}

func (c counters) read() probe {
	p := probe{snap: c.store.Metrics().Snapshot(), commits: c.commits.Load()}
	if c.cons != nil {
		p.fires = c.cons.Fires()
	}
	runtime.ReadMemStats(&p.mem)
	return p
}

// phase describes one measured phase for the layer metrics: counter
// readings around it and the client operations it completed.
type phase struct {
	before, after probe
	ops           float64 // client operations (jobs on society)
	reads         float64 // read-only client operations
	opsPerSec     float64
}

// layerInput gathers a traced run's raw material.
type layerInput struct {
	untraced  phase // Go runtime metrics come from the untraced half
	traced    phase // every other counter comes from the traced half
	lt        *layerTimes
	visited   int64 // tuples delivered to probe solves
	solves    int64
	spawnUS   float64
	waiterMax int64
	spanFile  string
}

// txnSum adds the engine's immediate and delayed counters.
func txnSum(s metrics.Snapshot) metrics.TxnCounters {
	var out metrics.TxnCounters
	for _, k := range []metrics.TxnKind{metrics.TxnImmediate, metrics.TxnDelayed} {
		c := s.Txn[k.String()]
		out.Attempts += c.Attempts
		out.Commits += c.Commits
		out.Retries += c.Retries
		out.Blocks += c.Blocks
	}
	return out
}

func histDelta(a, b metrics.HistogramSnapshot) (count, sum float64) {
	return float64(b.Count - a.Count), float64(b.Sum - a.Sum)
}

// layerMetrics computes every per-layer metric. A metric whose layer the
// workload does not exercise reads 0 with a 0 base.
func layerMetrics(in layerInput) []metric {
	a, b := in.traced.before.snap, in.traced.after.snap
	ops, reads := in.traced.ops, in.traced.reads
	d := func(x, y uint64) float64 { return float64(y - x) }
	perOp := func(name, unit string, num float64) metric {
		return metric{name: name, value: ratio(num, ops), unit: unit, base: baseOf(num, ops)}
	}
	share := func(name string, num, den float64) metric {
		return metric{name: name, value: ratio(num, den), unit: "ratio", base: baseOf(num, den)}
	}
	var out []metric

	// pattern
	lt := in.lt
	out = append(out,
		metric{name: "pattern.solve_us", value: lt.selfUS(spanSolve), unit: "us", n: int(lt.calls[spanSolve])},
		metric{name: "pattern.visited_per_solve", value: ratio(float64(in.visited), float64(in.solves)), unit: "count",
			base: baseOf(float64(in.visited), float64(in.solves))},
		share("pattern.secondary_indexed_share", d(a.SecondaryIndexedScans, b.SecondaryIndexedScans), d(a.SecondaryFieldScans, b.SecondaryFieldScans)),
		metric{name: "pattern.secondary_promotions", value: d(a.SecondaryPromotions, b.SecondaryPromotions), unit: "count"},
	)

	// txn
	ta, tb := txnSum(a), txnSum(b)
	attempts := d(ta.Attempts, tb.Attempts)
	out = append(out,
		metric{name: "txn.immediate_us", value: lt.selfUS(spanImmediate), unit: "us", n: int(lt.calls[spanImmediate])},
		metric{name: "txn.delayed_us", value: lt.selfUS(spanDelayed), unit: "us", n: int(lt.calls[spanDelayed])},
		perOp("txn.attempts_per_op", "count", attempts),
		perOp("txn.retries_per_op", "count", d(ta.Retries, tb.Retries)),
		perOp("txn.blocks_per_op", "count", d(ta.Blocks, tb.Blocks)),
		share("txn.commit_ratio", d(ta.Commits, tb.Commits), attempts),
	)

	// dataspace commit path
	_, wa := a.ShardLockTotals()
	_, wb := b.ShardLockTotals()
	storeCommits := d(a.KeyCommits+a.ShardFallbacks+a.CoarseCommits, b.KeyCommits+b.ShardFallbacks+b.CoarseCommits)
	gbN, gbSum := histDelta(a.GroupBatch, b.GroupBatch)
	epochReads := d(a.EpochReads, b.EpochReads)
	out = append(out,
		perOp("dataspace.wlocks_per_op", "count", float64(wb-wa)),
		perOp("dataspace.klocks_per_op", "count", d(a.KeyLockTotal(), b.KeyLockTotal())),
		share("dataspace.key_commit_share", d(a.KeyCommits, b.KeyCommits), storeCommits),
		perOp("dataspace.coarse_commits_per_op", "count", d(a.CoarseCommits, b.CoarseCommits)),
		perOp("dataspace.shard_fallbacks_per_op", "count", d(a.ShardFallbacks, b.ShardFallbacks)),
		metric{name: "dataspace.group_batch_mean", value: ratio(gbSum, gbN), unit: "count", base: baseOf(gbSum, gbN)},
		metric{name: "dataspace.epoch_reads_per_read", value: ratio(epochReads, reads), unit: "count", base: baseOf(epochReads, reads)},
		share("dataspace.epoch_fallback_ratio", d(a.EpochFallbacks, b.EpochFallbacks), epochReads),
		perOp("dataspace.commits_per_op", "count", d(in.traced.before.commits, in.traced.after.commits)),
	)

	// waiters and reactive wakeups
	wfN, wfSum := histDelta(a.WakeupFanout, b.WakeupFanout)
	evals := d(a.ReactiveEvals, b.ReactiveEvals)
	out = append(out,
		metric{name: "dataspace.wakeup_fanout_mean", value: ratio(wfSum, wfN), unit: "count", base: baseOf(wfSum, wfN)},
		metric{name: "dataspace.waiter_depth_max", value: float64(in.waiterMax), unit: "count"},
		perOp("reactive.evals_per_job", "count", evals),
		perOp("reactive.suppressed_per_job", "count", d(a.ReactiveSuppressed, b.ReactiveSuppressed)),
		share("reactive.delta_hit_ratio", d(a.ReactiveHits, b.ReactiveHits), evals),
		perOp("reactive.fallbacks_per_job", "count", d(a.ReactiveFallbacks, b.ReactiveFallbacks)),
	)

	// wal
	syncs := d(a.WalSyncs, b.WalSyncs)
	appends := d(a.WalAppends, b.WalAppends)
	out = append(out, lt.durs[spanWalAppend].p50p99("wal.append")...)
	out = append(out, lt.durs[spanWalWait].p50p99("wal.wait")...)
	out = append(out,
		perOp("wal.syncs_per_op", "count", syncs),
		metric{name: "wal.records_per_sync", value: ratio(appends, syncs), unit: "count", base: baseOf(appends, syncs)},
		perOp("wal.bytes_per_op", "B", d(a.WalAppendBytes, b.WalAppendBytes)),
	)

	// consensus
	fires := d(in.traced.before.fires, in.traced.after.fires)
	ccN, ccSum := histDelta(a.ConsensusCommunity, b.ConsensusCommunity)
	rounds := d(a.ConsensusRounds, b.ConsensusRounds)
	suppressed := d(a.ConsensusKicksSuppressed, b.ConsensusKicksSuppressed)
	out = append(out,
		metric{name: "consensus.detect_rounds_per_fire", value: ratio(rounds, fires), unit: "count", base: baseOf(rounds, fires)},
		metric{name: "consensus.community_mean", value: ratio(ccSum, ccN), unit: "count", base: baseOf(ccSum, ccN)},
		metric{name: "consensus.kicks_suppressed_per_round", value: ratio(suppressed, fires), unit: "count", base: baseOf(suppressed, fires)},
	)

	// process
	out = append(out, metric{name: "process.spawn_us", value: in.spawnUS, unit: "us"})

	// Go runtime, from the untraced half
	ua, ub, uops := in.untraced.before.mem, in.untraced.after.mem, in.untraced.ops
	out = append(out,
		metric{name: "go.allocs_per_op", value: ratio(d(ua.Mallocs, ub.Mallocs), uops), unit: "count", base: baseOf(d(ua.Mallocs, ub.Mallocs), uops)},
		metric{name: "go.alloc_bytes_per_op", value: ratio(d(ua.TotalAlloc, ub.TotalAlloc), uops), unit: "B", base: baseOf(d(ua.TotalAlloc, ub.TotalAlloc), uops)},
		metric{name: "go.gc_per_kop", value: ratio(float64(ub.NumGC-ua.NumGC), uops/1000), unit: "count",
			base: fmt.Sprintf("%d/%.3f", ub.NumGC-ua.NumGC, uops/1000)},
	)

	// tracing overhead: traced minus untraced throughput
	out = append(out, metric{name: "trace.ops_per_s_delta", value: in.traced.opsPerSec - in.untraced.opsPerSec, unit: "1/s",
		base: fmt.Sprintf("%.1f-%.1f", in.traced.opsPerSec, in.untraced.opsPerSec)})
	out = append(out, metric{name: "trace.spans", value: float64(lt.spans), unit: "count",
		base: fmt.Sprintf("dropped=%d file=%s", lt.dropped, in.spanFile)})
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
