//go:build !unix

package shard

import "os"

// MapShared is the heap stand-in for the cache tier's landing slots where
// mmap is missing: the local file stays empty and the slots live in memory.
func MapShared(f *os.File, off, n int64) ([]byte, func() error, error) {
	return make([]byte, n), func() error { return nil }, nil
}
