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
	"inferray/internal/sparql"
)

// aggregator buckets solutions and accumulates the projected
// aggregates per bucket.
type aggregator struct {
	run    *run
	keys   []int // GROUP BY slots
	items  []sparql.SelectItem
	seen   *tupleSet            // group number by the GROUP BY cells' ID tuple; nil without GROUP BY
	cells  []uint64             // every group's GROUP BY cells, len(keys) a group, first-seen order
	groups [][]*sparql.AggState // by group number
	emit   stage
}

func newAggregator(rn *run, emit stage) *aggregator {
	a := &aggregator{run: rn, items: rn.q.Items, emit: emit}
	for _, v := range rn.q.GroupBy {
		a.keys = append(a.keys, rn.slots[v])
	}
	if len(a.keys) == 0 {
		// The one implicit group, open before any solution: over zero
		// solutions it still emits (COUNT is then 0), per SPARQL.
		a.newGroup(nil, 0)
	} else {
		a.seen = newTupleSet(a.keys)
	}
	return a
}

// add feeds one WHERE solution into its group.
func (a *aggregator) add(ids []uint64, bound uint64) bool {
	g := 0 // the implicit group
	if a.seen != nil {
		var first bool
		if g, first = a.seen.add(ids, bound); first {
			a.newGroup(ids, bound)
		}
	}
	states := a.groups[g]
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

// newGroup opens the next group, keyed by the row's GROUP BY cells.
func (a *aggregator) newGroup(ids []uint64, bound uint64) {
	for _, slot := range a.keys {
		a.cells = append(a.cells, cellID(ids, bound, slot))
	}
	states := make([]*sparql.AggState, len(a.items))
	for i, it := range a.items {
		if it.Agg != nil {
			states[i] = sparql.NewAggState(it.Agg)
		}
	}
	a.groups = append(a.groups, states)
}

// flush emits one row per group in first-seen order: the group's GROUP
// BY cells plus every aggregate's output (unbound aggregate cells —
// MIN/MAX over nothing, SUM/AVG over a non-numeric — stay unbound).
func (a *aggregator) flush() {
	ids := make([]uint64, len(a.run.names))
	for g, states := range a.groups {
		var bound uint64
		for i, slot := range a.keys {
			if ids[slot] = a.cells[g*len(a.keys)+i]; ids[slot] != 0 {
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
