//go:build !linux

package spindex

// The paging hint is a no-op where stdlib syscall lacks Madvise (everywhere
// but Linux, including the !unix heap fallback where the "mapping" is
// ordinary Go memory).
func madviseWillNeed([]byte) {}
