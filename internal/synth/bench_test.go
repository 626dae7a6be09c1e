package synth

import "testing"

// BenchmarkGenerate is the generation half of a node's boot and of the
// benchmark's set-up: the world, the raw trace, its sort and the
// collection pipeline, at the daemons' default seed and scale.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(42, 0.02)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
