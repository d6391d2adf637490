package core

// PageHashCount reports how many pages PageContentHash has hashed, for
// the external test package's hash-once checks.
func PageHashCount() int64 { return pageHashCount.Load() }
