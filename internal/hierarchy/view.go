package hierarchy

import (
	"fmt"
	"slices"

	"inferray/internal/store"
)

// View fuses a store with a hierarchy index into the *visible* triple
// relation the encoded engine exposes: for the three encoded predicates
// the stored pairs plus the virtual subsumption pairs, for every other
// predicate exactly the stored table — which callers scan themselves:
// only Contains takes every predicate, the scans and Stats take the
// three VirtualPidx tables. It implements the query package's Virtual
// interface structurally (the query package defines the interface; this
// package never imports it).
//
// Visible semantics, per predicate:
//
//   - rdfs:subClassOf / rdfs:subPropertyOf: exactly the relation's
//     visible pairs (path length ≥ 1 over the stored edges). Every
//     stored pair is an edge of the relation, so stored ⊆ visible and
//     the stored table never needs to be consulted.
//   - rdf:type: the stored pairs plus, for every stored ⟨x, D⟩, the
//     pairs ⟨x, C⟩ for each visible super C of D. Expansion never adds
//     subjects, only objects.
type View struct {
	// St is the materialized store the virtual triples extend.
	St *store.Store
	// Idx is the hierarchy interval index.
	Idx *Index
}

// VirtualPidx reports whether the property table at pidx carries
// virtual content.
func (v *View) VirtualPidx(pidx int) bool {
	return pidx == v.Idx.typePidx || pidx == v.Idx.scPidx || pidx == v.Idx.spPidx
}

// table returns the stored table at pidx, or nil when absent/empty.
func (v *View) table(pidx int) *store.Table {
	t := v.St.Table(pidx)
	if t == nil || t.Empty() {
		return nil
	}
	return t
}

// notVirtual is the panic of a scan or statistics call for a property
// the view does not answer: callers route only VirtualPidx tables here
// and read every other one from the store.
func notVirtual(pidx int) string {
	return fmt.Sprintf("hierarchy: property table %d is not virtual", pidx)
}

// Contains reports whether ⟨s, pidx, o⟩ is visible — the one question
// the view answers for every predicate.
func (v *View) Contains(pidx int, s, o uint64) bool {
	switch pidx {
	case v.Idx.scPidx:
		return v.Idx.Classes.Subsumes(s, o)
	case v.Idx.spPidx:
		return v.Idx.Props.Subsumes(s, o)
	case v.Idx.typePidx:
		t := v.table(pidx)
		if t == nil {
			return false
		}
		if t.Contains(s, o) {
			return true
		}
		pairs := t.Pairs()
		lo, hi := t.SubjectRun(s)
		for i := lo; i < hi; i++ {
			if v.Idx.Classes.Subsumes(pairs[2*i+1], o) {
				return true
			}
		}
		return false
	}
	return v.St.Contains(pidx, s, o)
}

// typeObjects returns the sorted, deduplicated visible classes of the
// stored class run pairs[2*lo+1 .. 2*hi-1].
func (v *View) typeObjects(pairs []uint64, lo, hi int) []uint64 {
	buf := make([]uint64, 0, (hi-lo)*2)
	for i := lo; i < hi; i++ {
		buf = append(buf, pairs[2*i+1])
	}
	for i := lo; i < hi; i++ {
		buf = v.Idx.Classes.AppendSupers(pairs[2*i+1], buf)
	}
	return sortDedup(buf)
}

// sortDedup sorts buf ascending and removes duplicates in place.
func sortDedup(buf []uint64) []uint64 {
	slices.Sort(buf)
	return slices.Compact(buf)
}

// ScanSubject streams the visible objects of subject s at the virtual
// table pidx in ascending id order. The return value reports whether the walk ran to
// completion (fn returning false stops it).
func (v *View) ScanSubject(pidx int, s uint64, fn func(o uint64) bool) bool {
	switch pidx {
	case v.Idx.scPidx:
		return v.Idx.Classes.Supers(s, fn)
	case v.Idx.spPidx:
		return v.Idx.Props.Supers(s, fn)
	case v.Idx.typePidx:
		t := v.table(pidx)
		if t == nil {
			return true
		}
		pairs := t.Pairs()
		lo, hi := t.SubjectRun(s)
		if lo == hi {
			return true
		}
		for _, o := range v.typeObjects(pairs, lo, hi) {
			if !fn(o) {
				return false
			}
		}
		return true
	}
	panic(notVirtual(pidx))
}

// typeSubjects returns the sorted, deduplicated visible subjects typed
// (directly or through a visible sub class) with class o. The merged
// list is memoized per type-table version — the repeat cost of a
// `?x rdf:type C` query is then one binary search plus the iteration,
// like the materialized table's object run.
func (v *View) typeSubjects(t *store.Table, o uint64) []uint64 {
	if s, ok := v.Idx.typeSubjectsCached(o, t.Version()); ok {
		return s
	}
	classes := []uint64{o}
	v.Idx.Classes.Subs(o, func(sub uint64) bool {
		classes = append(classes, sub)
		return true
	})
	var buf []uint64
	os := t.OS()
	for _, c := range classes {
		lo, hi := store.KeyRun(os, c)
		for i := lo; i < hi; i++ {
			buf = append(buf, os[2*i+1])
		}
	}
	subjects := sortDedup(buf)
	v.Idx.memoTypeSubjects(o, t.Version(), subjects)
	return subjects
}

// ScanObject streams the visible subjects with object o at the virtual
// table pidx in ascending id order.
func (v *View) ScanObject(pidx int, o uint64, fn func(s uint64) bool) bool {
	switch pidx {
	case v.Idx.scPidx:
		return v.Idx.Classes.Subs(o, fn)
	case v.Idx.spPidx:
		return v.Idx.Props.Subs(o, fn)
	case v.Idx.typePidx:
		t := v.table(pidx)
		if t == nil {
			return true
		}
		for _, s := range v.typeSubjects(t, o) {
			if !fn(s) {
				return false
			}
		}
		return true
	}
	panic(notVirtual(pidx))
}

// ScanAll streams every visible ⟨s, o⟩ pair of the virtual table pidx:
// sorted by ⟨s, o⟩ when osOrder is false, by ⟨o, s⟩ when true. fn is
// always called as fn(s, o).
func (v *View) ScanAll(pidx int, osOrder bool, fn func(s, o uint64) bool) bool {
	switch pidx {
	case v.Idx.scPidx:
		return v.Idx.Classes.ForEachPair(osOrder, fn)
	case v.Idx.spPidx:
		return v.Idx.Props.ForEachPair(osOrder, fn)
	case v.Idx.typePidx:
		t := v.table(pidx)
		if t == nil {
			return true
		}
		if osOrder {
			// Distinct visible classes ascending, then each class's
			// visible subjects ascending.
			os := t.OS()
			var stored []uint64
			for i := 0; i < len(os); i += 2 {
				if i == 0 || os[i] != os[i-2] {
					stored = append(stored, os[i])
				}
			}
			buf := append([]uint64(nil), stored...)
			for _, c := range stored {
				buf = v.Idx.Classes.AppendSupers(c, buf)
			}
			for _, c := range sortDedup(buf) {
				for _, s := range v.typeSubjects(t, c) {
					if !fn(s, c) {
						return false
					}
				}
			}
			return true
		}
		pairs := t.Pairs()
		for i := 0; i < len(pairs); {
			j := i
			for j < len(pairs) && pairs[j] == pairs[i] {
				j += 2
			}
			for _, o := range v.typeObjects(pairs, i/2, j/2) {
				if !fn(pairs[i], o) {
					return false
				}
			}
			i = j
		}
		return true
	}
	panic(notVirtual(pidx))
}

// Stats returns visible-relation planner statistics for the virtual
// table pidx.
func (v *View) Stats(pidx int) store.TableStats {
	switch pidx {
	case v.Idx.scPidx:
		r := v.Idx.Classes
		return store.TableStats{
			Pairs:        r.VisiblePairs(),
			Subjects:     r.Subjects(),
			Objects:      r.Objects(),
			ObjectsExact: true,
		}
	case v.Idx.spPidx:
		r := v.Idx.Props
		return store.TableStats{
			Pairs:        r.VisiblePairs(),
			Subjects:     r.Subjects(),
			Objects:      r.Objects(),
			ObjectsExact: true,
		}
	case v.Idx.typePidx:
		t := v.table(pidx)
		if t == nil {
			return store.TableStats{}
		}
		st := t.Stats()
		virtual, objects := v.Idx.typeStats(t, true)
		st.Pairs += virtual
		st.Objects = objects
		st.ObjectsExact = true
		return st
	}
	panic(notVirtual(pidx))
}

// VirtualCounts returns the number of virtual (computed, not stored)
// triples per encoded predicate.
func (v *View) VirtualCounts() (vSC, vSP, vType int) {
	vSC = v.Idx.Classes.VisiblePairs()
	if t := v.table(v.Idx.scPidx); t != nil {
		vSC -= t.Size()
	}
	vSP = v.Idx.Props.VisiblePairs()
	if t := v.table(v.Idx.spPidx); t != nil {
		vSP -= t.Size()
	}
	vType, _ = v.Idx.typeStats(v.table(v.Idx.typePidx), false)
	return vSC, vSP, vType
}
