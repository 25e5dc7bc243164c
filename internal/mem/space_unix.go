//go:build unix && !aix

package mem

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mapWords returns n zero words in an anonymous private mapping: the
// kernel zero-fills each page on first touch, and MAP_NORESERVE keeps
// the untouched bulk of a layout out of the commit charge.
func mapWords(n int) []Word {
	b, err := syscall.Mmap(-1, 0, n*wordBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping %d words: %v", n, err))
	}
	return unsafe.Slice((*Word)(unsafe.Pointer(&b[0])), n)
}

// unmapWords returns a mapWords result to the OS.
func unmapWords(w []Word) {
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*wordBytes)); err != nil {
		panic(fmt.Sprintf("mem: unmapping %d words: %v", len(w), err))
	}
}
