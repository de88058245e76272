//go:build unix

package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n floats whose last element is the last four bytes
// before an inaccessible page, so a kernel that reads or writes past its
// operand faults instead of passing by luck — the assembly kernels have no
// bounds checks and neither -race nor checkptr sees inside them.
func guardedFloats(t testing.TB, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*4+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap %d bytes: %v", size, err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory; nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect guard page: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-page-n*4])), n)
}
