package query

// The entries below keep the perf ledger's module (bench/) compiling against
// the names the retired query cache exported. None holds any state; they go
// when bench/ stops calling them.

// Cache was the query layer's decoded-record LRU, summary memo and result
// memo.
//
// Deprecated: bench/ compatibility only.
type Cache struct{}

// NewCache returns nil; NewView ignores its cache argument.
//
// Deprecated: bench/ compatibility only.
func NewCache(int) *Cache { return nil }
