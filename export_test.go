package inferray

// ShadowedTypePairs exposes the engine's compaction invariant to the
// external test package: the number of stored rdf:type pairs the
// hierarchy index already serves, zero after every materialization.
func (r *Reasoner) ShadowedTypePairs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.engine.ShadowedTypePairs()
}
