package core

import (
	"fmt"
	"sort"

	"landmarkdht/internal/chord"
	"landmarkdht/internal/lph"
)

// Replication places each index entry on the key's successor AND the
// next R−1 nodes of its successor list — the standard Chord soft-state
// robustness technique (Stoica et al. §V.B, "replicate data associated
// with a key at the k nodes succeeding the key").
//
// The query path needs no changes: routing always delivers a subquery
// to the current successor of its region, and when the primary crashes
// the first replica IS the new successor, so its copy of the entries
// answers immediately — no republication delay. The querier already
// deduplicates results by object id, so overlapping replica answers
// are harmless.
//
// Replication interacts with dynamic load migration (splitting a
// node's range would have to re-shard every replica chain), so a
// System rejects enabling both; pick robustness or migration per
// deployment. Replicated entries count toward the paper's load measure
// on every holder.

// ReplicateAll establishes the replica placement for every currently
// stored entry of an index and registers the index for automatic repair
// (RepairReplicas / System.CrashNode / System.JoinNode). Call after
// bulk loading. replicas counts total copies including the primary.
// The call is idempotent: repeating it (or calling it after a repair)
// moves nothing and charges no transfer traffic.
func (s *System) ReplicateAll(indexName string, replicas int) error {
	if _, err := s.lookupIndex(indexName); err != nil {
		return err
	}
	if replicas < 2 {
		return fmt.Errorf("core: replication needs at least 2 copies, got %d", replicas)
	}
	if s.lb != nil {
		return fmt.Errorf("core: replication and dynamic load migration cannot be combined")
	}
	if replicas > chord.Successors {
		return fmt.Errorf("core: %d replicas exceed the successor-list length %d",
			replicas, chord.Successors)
	}
	s.replicated[indexName] = replicas
	s.repairIndex(indexName, replicas)
	return nil
}

// RepairReplicas re-establishes the registered replica placements after
// a membership change: missing copies (lost with a crashed holder) are
// restored from the survivors, stale copies (holders that fell out of a
// key's successor set after a join) are removed.
func (s *System) RepairReplicas() {
	names := make([]string, 0, len(s.replicated))
	for name := range s.replicated {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.repairIndex(name, s.replicated[name])
	}
}

// repairIndex recomputes the full replica placement for one index and
// rebuilds every node's store to exactly that placement: the union of
// surviving copies, deduplicated by (key, object), goes on each key's
// current successor — the primary — and the next replicas-1 distinct
// live successors. Only copies a node did not already hold are charged
// as transfer traffic, which makes the pass idempotent by construction.
func (s *System) repairIndex(indexName string, replicas int) {
	type kobj struct {
		key lph.Key
		obj ObjectID
	}
	// Union of surviving copies, in ring-order node iteration for
	// deterministic placement; remember what each node already holds.
	seen := make(map[kobj]bool)
	var keys []lph.Key
	var entries []Entry
	have := make(map[chord.ID]map[kobj]bool)
	nodes := s.Nodes()
	for _, in := range nodes {
		var h map[kobj]bool
		in.st.View(indexName, func(ks []lph.Key, es []Entry) {
			h = make(map[kobj]bool, len(ks))
			for i, key := range ks {
				ko := kobj{key, es[i].Obj}
				h[ko] = true
				if !seen[ko] {
					seen[ko] = true
					keys = append(keys, key)
					entries = append(entries, es[i])
				}
			}
		})
		if h == nil {
			continue
		}
		have[in.ID()] = h
	}
	desired := make(map[chord.ID][]int) // node -> indices into keys/entries
	for i, key := range keys {
		owner, err := s.net.SuccessorNode(key)
		if err != nil {
			continue // empty ring: nowhere to place
		}
		placed := map[chord.ID]bool{owner.ID(): true}
		targets := []chord.ID{owner.ID()}
		for _, succ := range owner.SuccessorList() {
			if len(targets) >= replicas {
				break
			}
			if placed[succ] || s.nodes[succ] == nil {
				continue
			}
			placed[succ] = true
			targets = append(targets, succ)
		}
		for _, t := range targets {
			desired[t] = append(desired[t], i)
		}
	}
	wantK := make([]lph.Key, 0, 64)
	wantE := make([]Entry, 0, 64)
	addE := make([]Entry, 0, 64)
	for _, in := range nodes {
		want := desired[in.ID()]
		if len(want) == 0 {
			s.noteStoreErr(in.st.DropIndex(indexName))
			continue
		}
		h := have[in.ID()]
		wantK, wantE = wantK[:0], wantE[:0]
		addE = addE[:0]
		for _, i := range want {
			wantK = append(wantK, keys[i])
			wantE = append(wantE, entries[i])
			if !h[kobj{keys[i], entries[i].Obj}] {
				addE = append(addE, entries[i])
			}
		}
		s.noteStoreErr(in.st.ApplyRegion(indexName, wantK, wantE))
		// The copies this node gained travelled from a replica holder:
		// price them as one bulk stream per destination rather than an
		// entry-at-a-time republication.
		s.accountBulk(indexName, addE)
	}
}

// EnableLoadBalancing is extended to refuse replicated deployments —
// see the guard in loadbal.go (replication check happens there via
// hasReplicas).
//
// hasReplicas reports whether any node stores an entry whose key it
// does not own (i.e. a replica copy).
func (s *System) hasReplicas() bool {
	for _, in := range s.nodes {
		found := false
		for _, name := range in.st.Indexes() {
			in.st.View(name, func(keys []lph.Key, _ []Entry) {
				for _, key := range keys {
					if !in.node.OwnsKey(key) {
						found = true
						return
					}
				}
			})
			if found {
				return true
			}
		}
	}
	return false
}
