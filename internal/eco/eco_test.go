package eco

import (
	"testing"

	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/sta"
	"selectivemt/internal/tech"
)

var (
	sharedLib  *liberty.Library
	sharedProc *tech.Process
)

func lib(t *testing.T) *liberty.Library {
	t.Helper()
	if sharedLib == nil {
		sharedProc = tech.Default130()
		l, err := liberty.Generate(sharedProc, liberty.DefaultBuildOptions(sharedProc))
		if err != nil {
			t.Fatal(err)
		}
		sharedLib = l
	}
	return sharedLib
}

// FixHold runs the hold fix on a fresh timer over d.
func FixHold(d *netlist.Design, cfg sta.Config, opts Options) (*Result, error) {
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		return nil, err
	}
	return FixHoldWith(inc, opts)
}

// holdRisky builds ff1 → INV → ff2 with a skewed capture clock so hold
// fails before the ECO.
func holdRisky(t *testing.T) (*netlist.Design, sta.Config) {
	t.Helper()
	l := lib(t)
	d := netlist.New("hold", l)
	d.AddPort("in", netlist.DirInput)
	d.AddPort("clk", netlist.DirInput)
	d.AddPort("out", netlist.DirOutput)
	n1, _ := d.AddNet("n1")
	n2, _ := d.AddNet("n2")
	ff1, _ := d.AddInstance("ff1", l.Cell("DFF_X1_L"))
	inv, _ := d.AddInstance("inv", l.Cell("INV_X1_L"))
	ff2, _ := d.AddInstance("ff2", l.Cell("DFF_X1_L"))
	ob, _ := d.AddInstance("ob", l.Cell("BUF_X2_L"))
	d.Connect(ff1, "D", d.NetByName("in"))
	d.Connect(ff1, "CK", d.NetByName("clk"))
	d.Connect(ff1, "Q", n1)
	d.Connect(inv, "A", n1)
	d.Connect(inv, "ZN", n2)
	d.Connect(ff2, "D", n2)
	d.Connect(ff2, "CK", d.NetByName("clk"))
	q2, _ := d.AddNet("q2")
	d.Connect(ff2, "Q", q2)
	d.Connect(ob, "A", q2)
	d.Connect(ob, "Z", d.NetByName("out"))
	for i, inst := range d.Instances() {
		inst.Pos, inst.Placed = geom.Pt(float64(i)*3, 0), true
	}
	d.Core = geom.RectOf(0, 0, 40, 8)
	cfg := sta.Config{
		ClockPeriodNs: 5,
		ClockPort:     "clk",
		InputSlewNs:   0.03,
		InputDelayNs:  0.1, // registered external inputs: no input-side hold risk
		Extractor:     &parasitics.EstimateExtractor{Proc: sharedProc},
		ClockArrival: func(inst *netlist.Instance) float64 {
			if inst.Name == "ff2" {
				return 0.4 // late capture clock: hold hazard
			}
			return 0
		},
	}
	return d, cfg
}

func TestFixHoldRepairsViolation(t *testing.T) {
	d, cfg := holdRisky(t)
	before, err := sta.Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if before.WorstHold >= 0 {
		t.Fatalf("test setup: expected a hold violation, got %v", before.WorstHold)
	}
	po := place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)
	res, err := FixHold(d, cfg, DefaultOptions(po))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.WorstHold < 0 {
		t.Errorf("hold still violated after ECO: %v (inserted %d buffers in %d passes)",
			res.Timing.WorstHold, res.BuffersInserted, res.Passes)
	}
	if res.BuffersInserted == 0 {
		t.Error("no buffers inserted")
	}
	if err := d.Validate(netlist.StrictValidate()); err != nil {
		t.Fatal(err)
	}
	// Setup must survive the padding.
	if res.Timing.WNS < 0 {
		t.Errorf("ECO broke setup: %v", res.Timing.WNS)
	}
}

func TestFixHoldNoopWhenClean(t *testing.T) {
	d, cfg := holdRisky(t)
	cfg.ClockArrival = nil // ideal clock: no hazard
	po := place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)
	res, err := FixHold(d, cfg, DefaultOptions(po))
	if err != nil {
		t.Fatal(err)
	}
	if res.BuffersInserted != 0 {
		t.Errorf("clean design got %d buffers", res.BuffersInserted)
	}
	if res.Passes != 1 {
		t.Errorf("clean design took %d passes", res.Passes)
	}
}

func TestFixHoldBadBuffer(t *testing.T) {
	d, cfg := holdRisky(t)
	po := place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)
	opts := DefaultOptions(po)
	opts.BufName = "NOPE"
	if _, err := FixHold(d, cfg, opts); err == nil {
		t.Error("unknown buffer cell accepted")
	}
}
