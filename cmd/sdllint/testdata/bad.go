// Package fixture seeds one violation per lock-discipline rule; the test
// asserts sdllint reports each at its expected line. This file is under
// testdata, so the Go tool never builds it — it only has to parse.
package fixture

import "sync"

type shard struct {
	mu      sync.RWMutex
	entries map[int]int
}

type store struct {
	shards  []*shard
	durable interface{ Append(any) uint64 }
}

// rlockMutation writes the live entries map under a read lock.
func rlockMutation(sh *shard) {
	sh.mu.RLock()
	sh.entries[1] = 2 // want rlock-mutation
	sh.mu.RUnlock()
}

// bareMutation deletes from the live entries map with no lock at all.
func bareMutation(sh *shard) {
	delete(sh.entries, 1) // want unlocked-mutation
}

// bareAppend reaches the durability sink outside any commit critical
// section.
func bareAppend(s *store) {
	s.durable.Append(nil) // want unlocked-append
}

// earlyExitBalanced is CLEAN: the error branch unlocks and returns, the
// fall-through keeps the lock for the mutation. The linter must not let
// the branch's unlock leak into the main path.
func earlyExitBalanced(sh *shard, err error) {
	sh.mu.Lock()
	if err != nil {
		sh.mu.Unlock()
		return
	}
	sh.entries[1] = 2
	sh.mu.Unlock()
}

// annotated is CLEAN: its caller holds the exclusive mu, declared by the
// annotation below.
//
// lint:holds mu
func annotated(sh *shard) {
	sh.entries[3] = 4
}

// closureScope is CLEAN: the literal passed to run executes under the
// lock its own body takes.
func closureScope(sh *shard, run func(func())) {
	run(func() {
		sh.mu.Lock()
		sh.entries[5] = 6
		sh.mu.Unlock()
	})
}

type fieldIndex struct {
	buckets map[int]map[int]struct{}
}

type shapeStats struct{ idx *fieldIndex }

// bareIndexWrite mutates a secondary-index bucket map with no shard lock
// held at all — a published index may only be touched by the exclusive-mu
// maintenance hooks, and even a fresh build holds at least the read lock.
func bareIndexWrite(st *shapeStats) {
	st.idx.buckets[1] = nil // want unlocked-index
}

// bareIndexDelete drops a bucket with no shard lock.
func bareIndexDelete(st *shapeStats) {
	delete(st.idx.buckets, 1) // want unlocked-index
}

// bareSecMaintain calls the secondary-index maintenance hook without the
// exclusive mu the hook's bucket mutations require.
func bareSecMaintain(sh *shard) {
	sh.secAdd(1, 2) // want unlocked-mutation
}

// rlockSecMaintain holds only the read lock across maintenance — the hook
// mutates published buckets, so the exclusive lock is required.
func rlockSecMaintain(sh *shard) {
	sh.mu.RLock()
	sh.secRemove(1, 2) // want rlock-mutation
	sh.mu.RUnlock()
}

// rlockBump bumps the change sequence under a read lock; sequence bumps
// are commit publication and need the exclusive mu.
func rlockBump(sh *shard) {
	sh.mu.RLock()
	sh.bumpSeq() // want rlock-mutation
	sh.mu.RUnlock()
}

// readLockedRebuild is CLEAN: a fresh index build may run under the read
// lock (racing builders each fill their own map and publication is an
// atomic store), declared by the read-held annotation.
//
// lint:holds rmu
func readLockedRebuild(st *shapeStats) {
	st.idx.buckets[2] = nil
}

// rmuIsNotExclusive: the read-held annotation must NOT satisfy the
// exclusive-mu rules.
//
// lint:holds rmu
func rmuIsNotExclusive(sh *shard) {
	sh.entries[7] = 8 // want rlock-mutation
}
