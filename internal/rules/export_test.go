package rules

// The marker lookups, for the external tests that check them against
// closures the reasoner built.
var (
	MarkerSubjects   = markerSubjects
	MarkedProperties = markedProperties
)
