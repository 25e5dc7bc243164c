//go:build !unix || aix

package mem

// mapWords returns n zero words from the Go heap on systems without a
// MAP_NORESERVE anonymous mapping; the collector reclaims them.
func mapWords(n int) []Word { return make([]Word, n) }

// unmapWords is a no-op: the words are garbage-collected.
func unmapWords([]Word) {}
