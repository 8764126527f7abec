package match

// Migrated reports whether the matcher has switched to the binned design.
func (m *AdaptiveMatcher) Migrated() bool { return m.migrated }
