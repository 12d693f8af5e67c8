package verilog

import (
	"bytes"
	"strings"
	"testing"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/tech"
)

var sharedLib *liberty.Library

func lib(t *testing.T) *liberty.Library {
	t.Helper()
	if sharedLib == nil {
		proc := tech.Default130()
		l, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
		if err != nil {
			t.Fatal(err)
		}
		sharedLib = l
	}
	return sharedLib
}

const simpleSrc = `
// a comment
module top (a, b, clk, y);
  input a, b;
  input clk;
  output y;
  wire n1; /* block
  comment */
  wire n2;
  INV_X1_L u1 (.A(a), .ZN(n1));
  NAND2_X1_L u2 (.A(n1), .B(b), .ZN(n2));
  DFF_X1_L ff (.D(n2), .CK(clk), .Q(y));
endmodule
`

func TestParseSimple(t *testing.T) {
	d, err := Parse(strings.NewReader(simpleSrc), lib(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "top" {
		t.Errorf("name = %q", d.Name)
	}
	if d.NumInstances() != 3 {
		t.Errorf("instances = %d", d.NumInstances())
	}
	if err := d.Validate(netlist.StrictValidate()); err != nil {
		t.Fatal(err)
	}
	ports := d.Ports()
	if len(ports) != 4 || ports[0].Name != "a" || ports[3].Name != "y" {
		t.Errorf("ports wrong: %v", ports)
	}
	if ports[3].Dir != netlist.DirOutput {
		t.Error("y should be an output")
	}
	u2 := d.Instance("u2")
	if u2 == nil || u2.Cell.Name != "NAND2_X1_L" {
		t.Fatal("u2 wrong")
	}
	if u2.Net("A").Name != "n1" {
		t.Error("u2.A connection wrong")
	}
}

func TestParseVectors(t *testing.T) {
	src := `
module vec (d, q, clk);
  input [3:0] d;
  output [3:0] q;
  input clk;
  DFF_X1_L f0 (.D(d[0]), .CK(clk), .Q(q[0]));
  DFF_X1_L f1 (.D(d[1]), .CK(clk), .Q(q[1]));
  DFF_X1_L f2 (.D(d[2]), .CK(clk), .Q(q[2]));
  DFF_X1_L f3 (.D(d[3]), .CK(clk), .Q(q[3]));
endmodule
`
	d, err := Parse(strings.NewReader(src), lib(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(netlist.StrictValidate()); err != nil {
		t.Fatal(err)
	}
	if len(d.Ports()) != 9 { // 4+4+1 scalar bits
		t.Errorf("ports = %d, want 9", len(d.Ports()))
	}
	if d.PortByName("d[2]") == nil {
		t.Error("vector bit d[2] missing")
	}
}

func TestParseUnconnectedPin(t *testing.T) {
	src := `
module u (a, y);
  input a;
  output y;
  wire n;
  NAND2_X1_MN g (.A(a), .B(a), .ZN(y));
endmodule
`
	d, err := Parse(strings.NewReader(src), lib(t))
	if err != nil {
		t.Fatal(err)
	}
	// Same net on two pins of one instance is legal.
	g := d.Instance("g")
	if g.Net("A") != g.Net("B") {
		t.Error("shared net parse wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no module", "wire x;"},
		{"unknown cell", "module m (a); input a; BOGUS u (.A(a)); endmodule"},
		{"missing endmodule", "module m (a); input a;"},
		{"undeclared port", "module m (a, zz); input a; endmodule"},
		{"decl not in header", "module m (a); input a; input b; endmodule"},
		{"bad token", "module m (a); input a; # endmodule"},
		{"unterminated comment", "module m (a); /* input a; endmodule"},
		{"dup instance", "module m (a); input a; INV_X1_L u (.A(a)); INV_X1_L u (.A(a)); endmodule"},
		{"bad pin", "module m (a); input a; INV_X1_L u (.NOPE(a)); endmodule"},
		{"two drivers", "module m (a, y); input a; output y; INV_X1_L u1 (.A(a), .ZN(y)); INV_X1_L u2 (.A(a), .ZN(y)); endmodule"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.src), lib(t)); err == nil {
			t.Errorf("%s: parse unexpectedly succeeded", c.name)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	d, err := Parse(strings.NewReader(simpleSrc), lib(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(bytes.NewReader(buf.Bytes()), lib(t))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	compareDesigns(t, d, d2)
}

func TestRoundTripEscapedIdentifiers(t *testing.T) {
	// Build a design with vector-bit names, write, reparse.
	l := lib(t)
	d := netlist.New("esc", l)
	d.AddPort("in[0]", netlist.DirInput)
	d.AddPort("out[0]", netlist.DirOutput)
	inv, _ := d.AddInstance("u.x", l.Cell("INV_X1_L"))
	d.Connect(inv, "A", d.NetByName("in[0]"))
	d.Connect(inv, "ZN", d.NetByName("out[0]"))
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(bytes.NewReader(buf.Bytes()), l)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if d2.Instance("u.x") == nil {
		t.Error("escaped instance name lost")
	}
	if d2.PortByName("in[0]") == nil {
		t.Error("escaped port name lost")
	}
}

func compareDesigns(t *testing.T, a, b *netlist.Design) {
	t.Helper()
	if a.NumInstances() != b.NumInstances() || a.NumNets() != b.NumNets() ||
		len(a.Ports()) != len(b.Ports()) {
		t.Fatalf("shape differs: %d/%d insts, %d/%d nets, %d/%d ports",
			a.NumInstances(), b.NumInstances(), a.NumNets(), b.NumNets(),
			len(a.Ports()), len(b.Ports()))
	}
	for _, ia := range a.Instances() {
		ib := b.Instance(ia.Name)
		if ib == nil {
			t.Fatalf("instance %s lost", ia.Name)
		}
		if ia.Cell.Name != ib.Cell.Name {
			t.Errorf("%s: cell %s != %s", ia.Name, ib.Cell.Name, ia.Cell.Name)
		}
		for k, p := range ia.Cell.Pins {
			na := ia.NetAt(k)
			if na == nil {
				continue
			}
			nb := ib.Net(p.Name)
			if nb == nil || nb.Name != na.Name {
				t.Errorf("%s.%s: net differs", ia.Name, p.Name)
			}
		}
	}
	for _, pa := range a.Ports() {
		pb := b.PortByName(pa.Name)
		if pb == nil || pb.Dir != pa.Dir {
			t.Errorf("port %s differs", pa.Name)
		}
	}
}

func TestEscapeID(t *testing.T) {
	if escapeID("abc_1") != "abc_1" {
		t.Error("plain id escaped")
	}
	if escapeID("a[0]") != "\\a[0] " {
		t.Errorf("escape = %q", escapeID("a[0]"))
	}
	if escapeID("1abc") != "\\1abc " {
		t.Error("leading digit must be escaped")
	}
}
