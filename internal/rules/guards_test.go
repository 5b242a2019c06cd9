package rules

import (
	"slices"
	"testing"

	"inferray/internal/dictionary"
	"inferray/internal/rdf"
)

// TestGuardsDerivedFromSpecs pins what Guards derives from Table 5 to the
// vocabulary the bypass guards checked when it was listed by hand: eleven
// marker classes (G1) and ten table sides (G2). A change to the specs
// that moves either set must show here, with the DESIGN.md §10 list.
func TestGuardsDerivedFromSpecs(t *testing.T) {
	d := dictionary.NewWithVocabulary(rdf.VocabularyProperties, rdf.VocabularyResources)
	v := ResolveVocab(d)
	g := Guards(v)

	wantMarkers := []uint64{
		v.Class, v.Property, v.Datatype, v.ContainerMembership,
		v.FunctionalProp, v.InverseFunctionalProp, v.SymmetricProp,
		v.TransitiveProp, v.DatatypeProp, v.ObjectProp, v.OWLClass,
	}
	slices.Sort(wantMarkers)
	if !slices.Equal(g.Markers, wantMarkers) {
		t.Errorf("markers %v, want %v", decodeAll(d, g.Markers), decodeAll(d, wantMarkers))
	}

	for _, tc := range []struct {
		pidx    int
		subject bool
		object  bool
	}{
		{v.Type, true, false},
		{v.SubClassOf, false, false},
		{v.SubPropertyOf, true, false},
		{v.Domain, true, false},
		{v.Range, true, false},
		{v.SameAs, true, true},
		{v.EquivClass, false, false},
		{v.EquivProp, true, true},
		{v.InverseOf, true, true},
		{v.Member, false, false},
	} {
		name := d.MustDecode(dictionary.PropID(tc.pidx))
		for _, side := range []Side{{tc.pidx, false}, {tc.pidx, true}} {
			want := tc.subject
			if side.Object {
				want = tc.object
			}
			if got := slices.Contains(g.Sides, side); got != want {
				t.Errorf("%s object=%t: guarded %t, want %t", name, side.Object, got, want)
			}
		}
	}
	if len(g.Sides) != 10 {
		t.Errorf("%d guarded sides, want 10: %v", len(g.Sides), g.Sides)
	}
}

func decodeAll(d *dictionary.Dictionary, ids []uint64) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = d.MustDecode(id)
	}
	return out
}
