package sta

import (
	"fmt"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/place"
	"selectivemt/internal/synth"
)

// BenchmarkCompile times one compile of the flat timing graph on the
// placed gen.Large design (design seed 3) at 10k and 100k instances:
//
//	go test -run '^$' -bench '^BenchmarkCompile$' -benchmem ./internal/sta
func BenchmarkCompile(b *testing.B) {
	c, err := normalizeConfig(cfg(b, 10))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			d, err := synth.Map(gen.Large(n, 3).Module, lib(b), synth.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := place.Place(d, place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compile(d, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
