package rules

// The marker lookup of the property side, for the external test that
// checks it against closures the reasoner built.
var MarkedProperties = markedProperties
