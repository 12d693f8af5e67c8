package verilog

import (
	"strings"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/place"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

// fuzzLib builds the library the fuzz target parses against, once.
func fuzzLib(f *testing.F) *liberty.Library {
	f.Helper()
	proc := tech.Default130()
	lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		f.Fatal(err)
	}
	return lib
}

// TestParseRejectsHugeVector pins the parser hardening the fuzz target
// motivated: a hostile [msb:lsb] range must fail cleanly instead of
// expanding to millions of names.
func TestParseRejectsHugeVector(t *testing.T) {
	lib := liberty.NewLibrary("empty", tech.Default130())
	src := "module m (a);\n input [99999999:0] a;\nendmodule\n"
	if _, err := Parse(strings.NewReader(src), lib); err == nil {
		t.Fatal("hundred-megabit vector accepted")
	}
	src = "module m (a);\n input [18446744073709551616:0] a;\nendmodule\n"
	if _, err := Parse(strings.NewReader(src), lib); err == nil {
		t.Fatal("overflowing bound accepted")
	}
	// MaxInt64 parses cleanly, so msb-lsb+1 would wrap negative and slip
	// past a naive width check.
	src = "module m (a);\n input [9223372036854775807:0] a;\nendmodule\n"
	if _, err := Parse(strings.NewReader(src), lib); err == nil {
		t.Fatal("int-overflow vector bound accepted")
	}
}

// FuzzParseVerilog throws arbitrary text at the structural-Verilog
// parser: it must either return an error or a design that survives a
// write/re-parse round trip — and never panic. The corpus is seeded with
// the writer's own output on a synthesized benchmark (the exchange files
// the examples produce) plus the syntax corners the grammar supports.
func FuzzParseVerilog(f *testing.F) {
	lib := fuzzLib(f)

	spec := gen.SmallTest()
	proc := lib.Proc
	d, err := synth.Map(spec.Module, lib, synth.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions(proc.RowHeightUm, proc.SitePitchUm)); err != nil {
		f.Fatal(err)
	}
	var seed strings.Builder
	if err := Write(&seed, d); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("module m (a, z);\n input a;\n output z;\n INV_X1_L u1 (.A(a), .ZN(z));\nendmodule\n")
	f.Add("module m (a);\n input [3:0] a;\n wire w;\n // comment\n /* block */\nendmodule\n")
	f.Add("module m (\\a[0] );\n input \\a[0] ;\n NAND2_X1_L g (.A(\\a[0] ), .B(\\a[0] ), .ZN());\nendmodule\n")
	f.Add("module m (a); input a; BUF_X1_H b (.A(n[2]));\nendmodule")
	f.Add("module m (); endmodule")

	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(strings.NewReader(src), lib)
		if err != nil {
			return
		}
		// A successfully parsed design must be writable and re-parsable:
		// the parser's output is the writer's input in every flow stage.
		var out strings.Builder
		if err := Write(&out, d); err != nil {
			t.Fatalf("write after successful parse: %v", err)
		}
		if _, err := Parse(strings.NewReader(out.String()), lib); err != nil {
			t.Fatalf("re-parse of written netlist: %v\n%s", err, out.String())
		}
		// A clone is interchangeable with its original: same elements,
		// same endpoint order.
		if d.Clone().Fingerprint() != d.Fingerprint() {
			t.Fatalf("clone fingerprint differs from the parsed design's:\n%s", src)
		}
	})
}
