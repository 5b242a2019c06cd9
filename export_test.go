package inferray

// ShadowedTypePairs exposes the engine's compaction invariant to the
// external test package: the number of stored rdf:type pairs the
// hierarchy index already serves, zero after every materialization.
func (r *Reasoner) ShadowedTypePairs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.engine.ShadowedTypePairs()
}

// CheckCarried exposes the engine's self-check of everything the write
// path carries between versions (visible count, cached ⟨o,s⟩ lists).
func (r *Reasoner) CheckCarried() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine.CheckCarried()
}

// TypeStatsPasses reports how many whole-table passes the visible-count
// memo has needed on the current hierarchy index; -1 without one.
func (r *Reasoner) TypeStatsPasses() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if hv := r.engine.HierView(); hv != nil {
		return hv.Idx.TypeStatsPasses()
	}
	return -1
}
