package keyhash

import "testing"

// TestStringIsPinned holds the hash to fixed outputs: it is unseeded,
// and a change to it moves every memo slot and every table layout.
func TestStringIsPinned(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want uint64
	}{
		{"", 0x8ebc6af09c88c6e3},
		{"file-00000001", 0xa88623823b32f059},
		{"a-key-longer-than-sixteen-bytes.example.com", 0x917ad60a27b44390},
	} {
		if got := String(1, tc.s); got != tc.want {
			t.Errorf("String(1, %q) = %#x, want %#x", tc.s, got, tc.want)
		}
	}
	if String(1, "ab") == String(2, "ab") {
		t.Error("h does not reach the result")
	}
	if String(1, "a") != String(1, "a\x00") {
		t.Error("trailing zero bytes hash apart: the doc comment's warning no longer holds")
	}
}
