//go:build !unix

package spindex

import (
	"io"
	"os"
)

// mmapReadOnly on platforms without syscall.Mmap degrades to reading the
// whole file onto the heap: OpenHierMapped still works (no contraction on
// reopen, same validation), but the bytes are process-private instead of
// shared through the page cache.
func mmapReadOnly(f *os.File, size int) ([]byte, func() error, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
