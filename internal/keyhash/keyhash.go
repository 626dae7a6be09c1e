// Package keyhash is the repository's one unseeded string hash: the
// verdict memo (internal/serve) and the compiled feature context
// (internal/features) both key on it. It takes no seed so that what is
// built on it — which events hit the memo, where a key lies in the
// context's table — is the same in every process. Neither user trusts
// it for more than speed: the memo and the table verify the key itself
// after a hash match, so a weak or chosen input costs a miss or a probe
// step, never a wrong answer.
package keyhash

import "math/bits"

// Mix is the folded 64×64→128 product of wyhash.
func Mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// String folds s into h, sixteen bytes per multiply. The length of s is
// not part of the result: a caller that hashes several strings in a row,
// or keys that differ only by trailing zero bytes, puts the lengths
// into h first.
func String(h uint64, s string) uint64 {
	const k = 0x8ebc6af09c88c6e3
	for ; len(s) > 16; s = s[16:] {
		h = Mix(load64(s)^k, load64(s[8:])^h)
	}
	var a, b uint64
	switch {
	case len(s) >= 8: // the two words overlap when len(s) < 16
		a, b = load64(s), load64(s[len(s)-8:])
	default:
		for i := 0; i < len(s); i++ {
			a |= uint64(s[i]) << (8 * uint(i))
		}
	}
	return Mix(a^k, b^h)
}
