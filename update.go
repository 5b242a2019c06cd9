package inferray

import (
	"context"
	"strings"

	"inferray/internal/rdf"
	"inferray/internal/sparql"
	"inferray/internal/wal"
)

// UpdateStats reports what an Update request did.
type UpdateStats struct {
	// Ops is the number of operations executed.
	Ops int
	// Inserted counts the ground triples asserted by INSERT DATA
	// operations (before deduplication against the store).
	Inserted int
	// Deleted counts the asserted triples removed by DELETE DATA and
	// DELETE WHERE operations. Triples that were requested but not
	// asserted — unknown terms, or derivable-only facts — are not
	// counted: deleting a triple the store merely infers is a no-op,
	// exactly as in SPARQL (the fact remains derivable).
	Deleted int
	// EncodingDropped reports that a schema retraction (subClassOf /
	// subPropertyOf) forced the hierarchy interval encoding off for
	// this reasoner; see DESIGN.md §11.
	EncodingDropped bool
}

// Update parses and executes a SPARQL UPDATE request — the forms
// documented in docs/SPARQL.md: INSERT DATA, DELETE DATA, and DELETE
// WHERE, as a ';'-separated sequence executed in order. INSERT DATA
// asserts its triples and materializes incrementally; the DELETE forms
// retract asserted triples and maintain the closure by
// delete-rederive, so after every operation the visible closure equals
// a from-scratch materialization of the surviving asserted triples.
// DELETE WHERE instantiates its pattern block against the visible
// closure and retracts the asserted triples among the matches.
//
// On a durable reasoner every operation is written to the write-ahead
// log before it is applied (DELETE WHERE logs the matched ground
// triples, so replay is deterministic). Parse failures are returned as
// *sparql.ParseError values carrying the line and column of the
// offending token. Operations before a failing one stay applied.
func (r *Reasoner) Update(text string) (UpdateStats, error) {
	u, err := sparql.ParseUpdate(text)
	if err != nil {
		return UpdateStats{}, err
	}
	var st UpdateStats
	for _, op := range u.Ops {
		switch op.Kind {
		case sparql.UpdateInsertData:
			batch, err := groundTriples(op.Triples)
			if err != nil {
				return st, err
			}
			if _, err := r.Insert(batch); err != nil {
				return st, err
			}
			st.Inserted += len(batch)
		case sparql.UpdateDeleteData, sparql.UpdateDeleteWhere:
			m := mutation{kind: wal.OpDelete, where: op.Patterns}
			if op.Kind == sparql.UpdateDeleteData {
				if m.batch, err = groundTriples(op.Triples); err != nil {
					return st, err
				}
			}
			// Retraction needs a settled closure: staged inserts, when
			// there are any, are materialized first, in program order.
			if err := r.settle(false); err != nil {
				return st, err
			}
			_, rs, err := r.apply(m)
			if err != nil {
				return st, err
			}
			st.Deleted += rs.Retracted
			st.EncodingDropped = st.EncodingDropped || rs.EncodingDropped
		}
		st.Ops++
	}
	return st, nil
}

// groundTriples converts a parsed DATA block into triples, enforcing
// the same term rules as Add.
func groundTriples(triples [][3]string) ([]rdf.Triple, error) {
	out := make([]rdf.Triple, 0, len(triples))
	for _, tr := range triples {
		t := rdf.Triple{S: tr[0], P: tr[1], O: tr[2]}
		if err := checkTriple(t); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// matchPatternsLocked evaluates a DELETE WHERE basic graph pattern
// against the visible closure (virtual triples included) and returns
// every instantiated ground triple. r.mu must be held. It cannot go
// through the public query path, which takes the read lock; it runs the
// same compiled one-group query through the same stage chain.
func (r *Reasoner) matchPatternsLocked(patterns [][3]string) ([]rdf.Triple, error) {
	pl, err := compile(&sparql.Query{Groups: []sparql.Group{{Patterns: patterns}}})
	if err != nil {
		return nil, err
	}
	var out []rdf.Triple
	_, _, err = r.runLocked(context.TODO(), pl, 0, nil, func(row Row) bool {
		for _, pat := range patterns {
			for pos, raw := range pat {
				if strings.HasPrefix(raw, "?") {
					pat[pos], _ = row.lookup(raw[1:])
				}
			}
			out = append(out, rdf.Triple{S: pat[0], P: pat[1], O: pat[2]})
		}
		return true
	})
	return out, err
}
