package netlist_test

import (
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/place"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

// placed maps a generated circuit onto low-Vth cells and places it, the
// state the flow first fingerprints a design in.
func placed(tb testing.TB, spec gen.CircuitSpec) *netlist.Design {
	tb.Helper()
	proc := tech.Default130()
	l, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		tb.Fatal(err)
	}
	d, err := synth.Map(spec.Module, l, synth.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions(proc.RowHeightUm, proc.SitePitchUm)); err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkFingerprint times the analysis-cache key on SmallTest, Circuit
// A and the 10k tier:
//
//	go test -run '^$' -bench '^BenchmarkFingerprint$' -benchmem ./internal/netlist
func BenchmarkFingerprint(b *testing.B) {
	for _, c := range []struct {
		name string
		spec func() gen.CircuitSpec
	}{
		{"small", gen.SmallTest},
		{"a", gen.CircuitA},
		{"10k", func() gen.CircuitSpec { return gen.Large(10000, 3) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := placed(b, c.spec())
			b.ReportAllocs()
			for b.Loop() {
				d.Fingerprint()
			}
		})
	}
}

// TestFingerprintAllocsConstant: the fingerprint streams the design
// through one reused buffer, so its allocation count is a small constant
// that does not grow with the design.
func TestFingerprintAllocsConstant(t *testing.T) {
	const maxAllocs = 8
	small := placed(t, gen.SmallTest())
	a := placed(t, gen.CircuitA())
	ns := testing.AllocsPerRun(10, func() { _ = small.Fingerprint() })
	na := testing.AllocsPerRun(10, func() { _ = a.Fingerprint() })
	if ns != na || na > maxAllocs {
		t.Errorf("Fingerprint allocates %v objects on SmallTest and %v on Circuit A; want the same count, at most %d",
			ns, na, maxAllocs)
	}
}
