package erasure

import "testing"

// TestTableRoundTrips checks the generator tables: every non-zero field
// element is some power of g, log inverts exp, and every element has a
// working multiplicative inverse.
func TestTableRoundTrips(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		e := Exp(i)
		if e == 0 {
			t.Fatalf("g^%d = 0", i)
		}
		if seen[e] {
			t.Fatalf("g^%d repeats element %#x before the cycle closes", i, e)
		}
		seen[e] = true
		if logTable[e] != i {
			t.Fatalf("log(g^%d) = %d", i, logTable[e])
		}
	}
	if Exp(255) != Exp(0) {
		t.Fatalf("generator cycle is not 255")
	}
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a·a⁻¹ = %#x for a = %#x", got, a)
		}
		if got := Div(byte(a), byte(a)); got != 1 {
			t.Fatalf("a/a = %#x for a = %#x", got, a)
		}
	}
}

// Div returns a / b in GF(2^8).  It panics when b is 0.
func Div(a, b byte) byte {
	return Mul(a, Inv(b))
}
