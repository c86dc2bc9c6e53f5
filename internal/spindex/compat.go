package spindex

import "press/internal/roadnet"

// The entries below keep the perf ledger's module (bench/) compiling against
// the names the retired contraction hierarchy exported. None does any work;
// they go when bench/ stops calling them.

// HierOptions tuned the retired hierarchy build.
//
// Deprecated: bench/ compatibility only.
type HierOptions struct{}

// NewHierWith returns NewHier(g).
//
// Deprecated: bench/ compatibility only.
func NewHierWith(g *roadnet.Graph, _ HierOptions) *Hier { return NewHier(g) }

// OpenHierMapped returns NewHier(g); it reads nothing at path.
//
// Deprecated: bench/ compatibility only.
func OpenHierMapped(_ string, g *roadnet.Graph) (*Hier, error) { return NewHier(g), nil }

// SaveSnapshot writes nothing and returns nil.
//
// Deprecated: bench/ compatibility only.
func (h *Hier) SaveSnapshot(string) error { return nil }

// Close releases nothing and returns nil.
//
// Deprecated: bench/ compatibility only.
func (h *Hier) Close() error { return nil }

// Mapped returns false.
//
// Deprecated: bench/ compatibility only.
func (h *Hier) Mapped() bool { return false }

// MappedBytes returns 0.
//
// Deprecated: bench/ compatibility only.
func (h *Hier) MappedBytes() int { return 0 }

// WitnessCap returns 0.
//
// Deprecated: bench/ compatibility only.
func (h *Hier) WitnessCap() int { return 0 }

// UnpackCacheStats returns zeros.
//
// Deprecated: bench/ compatibility only.
func (h *Hier) UnpackCacheStats() (hits, misses uint64, bytes int) { return 0, 0, 0 }

// CachedRows returns 0.
//
// Deprecated: bench/ compatibility only.
func (h *Hier) CachedRows() int { return 0 }

// RowCacheBytes returns 0.
//
// Deprecated: bench/ compatibility only.
func (h *Hier) RowCacheBytes() int { return 0 }
