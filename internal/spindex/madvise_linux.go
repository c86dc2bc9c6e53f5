// The stdlib syscall package exports Madvise on Linux only (the BSDs and
// darwin have the raw syscall but not the Go wrapper), so the hint is gated
// on linux and compiles to a no-op everywhere else (madvise_other.go). It is
// best-effort — a kernel that ignores it costs nothing but the syscall.

//go:build linux

package spindex

import "syscall"

// madviseWillNeed asks the kernel to start paging the mapping in now, so a
// daemon's first queries after a cold boot hit warm pages instead of
// stalling on page faults section by section.
func madviseWillNeed(data []byte) {
	if len(data) > 0 {
		_ = syscall.Madvise(data, syscall.MADV_WILLNEED)
	}
}
