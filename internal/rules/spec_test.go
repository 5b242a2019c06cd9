package rules

import (
	"slices"
	"testing"

	"inferray/internal/dictionary"
)

// TestHeadEndpointInBody pins the property that makes a retraction's
// seeded rederivation pass complete (the reasoner's rederiveSeed): in
// every spec of every fragment, each head pattern's subject — or, for a
// head whose predicate is not rdf:type, its object — is the subject or
// object of some body pattern. Every derivation of a pair then has a
// premise holding that term of the pair as its subject or object. The
// subject is such a term in every head but one, SCM-CLS's ⟨owl:Nothing
// subClassOf V0⟩, whose subject is a constant no body pattern names; a
// new head of that kind must be added here knowingly.
func TestHeadEndpointInBody(t *testing.T) {
	v := testVocab()
	typ := C(dictionary.PropID(v.Type))
	inBody := func(sp Spec, x Term) bool {
		return slices.ContainsFunc(sp.Body, func(b Pattern) bool { return b.S == x || b.O == x })
	}
	objectOnly := 0
	for _, f := range allFragments() {
		for _, sp := range Specs(f, v) {
			for _, h := range sp.Head {
				switch {
				case inBody(sp, h.S):
				case h.P != typ && inBody(sp, h.O):
					objectOnly++
					if sp.Name != "SCM-CLS" || h.S != C(v.Nothing) {
						t.Errorf("%s: %s: only the object of head %+v is in the body", f, sp.Name, h)
					}
				default:
					t.Errorf("%s: %s: head %+v has no endpoint that a body pattern's subject or object binds", f, sp.Name, h)
				}
			}
		}
	}
	if objectOnly != 1 {
		t.Errorf("%d object-only heads across the fragments, want 1 (SCM-CLS in rdfs-plus-full)", objectOnly)
	}
}
