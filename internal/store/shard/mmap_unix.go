//go:build unix

package shard

import (
	"fmt"
	"os"
	"syscall"
)

// MapShared grows f to off+n bytes and maps that range read-write and
// shared: the cache tier's landing slots. A fetch reads the PFS file
// straight into the mapping and the kernel writes the pages back to the
// local file on its own schedule, so the tier stays a local-disk tier —
// its warm rate is the page-cache rate, the LocalSeqBW story of the
// performance model — without a write call per shard. off must be a
// multiple of the page size.
func MapShared(f *os.File, off, n int64) ([]byte, func() error, error) {
	if err := f.Truncate(off + n); err != nil {
		return nil, nil, err
	}
	b, err := syscall.Mmap(int(f.Fd()), off, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap: %w", err)
	}
	return b, func() error { return syscall.Munmap(b) }, nil
}
