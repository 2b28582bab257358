//go:build !amd64

package erasure

// Only amd64 has a vector kernel; everything else keeps the byte loop.

func vectorAvailable() bool { return false }

func mulAddVec(tab *[32]byte, dst, src *byte, n int) {
	panic("erasure: no vector kernel on this architecture")
}
