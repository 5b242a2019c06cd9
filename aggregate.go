package inferray

// The GROUP BY aggregation stage of the chain: a buffered stage between
// FILTER and the solution modifiers. Solutions are bucketed by the ID
// tuple of their GROUP BY cells (one implicit group when the clause is
// absent but the projection aggregates), each bucket drives one
// sparql.AggState per aggregate item — the only place the stage decodes
// a term is an aggregate's argument — and flush emits one slot row per
// group: the GROUP BY cells plus the aggregate outputs under their
// aliases' slots.

import (
	"encoding/binary"

	"inferray/internal/sparql"
)

// aggregator buckets solutions and accumulates the projected
// aggregates per bucket.
type aggregator struct {
	run    *run
	keys   []int // GROUP BY slots
	items  []sparql.SelectItem
	groups map[string][]*sparql.AggState // by tupleKey of the GROUP BY cells
	order  []string                      // first-seen key order, for deterministic output
	key    []byte
	emit   stage
}

func newAggregator(rn *run, emit stage) *aggregator {
	a := &aggregator{run: rn, items: rn.q.Items, groups: map[string][]*sparql.AggState{}, emit: emit}
	for _, v := range rn.q.GroupBy {
		a.keys = append(a.keys, rn.slots[v])
	}
	return a
}

// add feeds one WHERE solution into its group.
func (a *aggregator) add(ids []uint64, bound uint64) bool {
	a.key = tupleKey(a.key[:0], a.keys, ids, bound)
	states, ok := a.groups[string(a.key)]
	if !ok {
		states = a.newGroup(string(a.key))
	}
	for i, it := range a.items {
		switch {
		case it.Agg == nil:
		case it.Agg.Star:
			states[i].Observe("", true)
		default:
			states[i].Observe(a.run.cell(ids, bound, a.run.slots[it.Agg.Var]))
		}
	}
	return true // every solution feeds its group
}

func (a *aggregator) newGroup(key string) []*sparql.AggState {
	states := make([]*sparql.AggState, len(a.items))
	for i, it := range a.items {
		if it.Agg != nil {
			states[i] = sparql.NewAggState(it.Agg)
		}
	}
	a.groups[key] = states
	a.order = append(a.order, key)
	return states
}

// flush emits one row per group in first-seen order: the group's GROUP
// BY cells, read back out of its key, plus every aggregate's output
// (unbound aggregate cells — MIN/MAX over nothing, SUM/AVG over a
// non-numeric — stay unbound). With no GROUP BY and zero solutions the
// single implicit group still emits (COUNT is then 0), per SPARQL.
func (a *aggregator) flush() {
	if len(a.groups) == 0 && len(a.keys) == 0 {
		a.newGroup("")
	}
	ids := make([]uint64, len(a.run.names))
	for _, key := range a.order {
		states := a.groups[key]
		var bound uint64
		for i, slot := range a.keys {
			if ids[slot] = binary.LittleEndian.Uint64([]byte(key[8*i : 8*i+8])); ids[slot] != 0 {
				bound |= 1 << uint(slot)
			}
		}
		for i, it := range a.items {
			if it.Agg == nil {
				continue
			}
			if term, ok := states[i].Result(); ok {
				slot := a.run.slots[it.Name]
				ids[slot] = a.run.encode(term)
				bound |= 1 << uint(slot)
			}
		}
		if !a.emit(ids, bound) {
			return
		}
	}
}
