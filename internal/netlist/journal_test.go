package netlist

import (
	"fmt"
	"testing"

	"selectivemt/internal/liberty"
	"selectivemt/internal/tech"
)

func journalLib(t *testing.T) *liberty.Library {
	t.Helper()
	proc := tech.Default130()
	l, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// buildJournalDesign makes a two-inverter chain: in → i1 → i2 → out.
func buildJournalDesign(t *testing.T, l *liberty.Library) *Design {
	t.Helper()
	d := New("j", l)
	if _, err := d.AddPort("in", DirInput); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("out", DirOutput); err != nil {
		t.Fatal(err)
	}
	i1, err := d.AddInstance("i1", l.Cell("INV_X1_L"))
	if err != nil {
		t.Fatal(err)
	}
	i2, err := d.AddInstance("i2", l.Cell("INV_X1_L"))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := d.AddNet("mid")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		inst *Instance
		pin  string
		net  *Net
	}{
		{i1, "A", d.NetByName("in")},
		{i1, "ZN", mid},
		{i2, "A", mid},
		{i2, "ZN", d.NetByName("out")},
	} {
		if err := d.Connect(c.inst, c.pin, c.net); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestJournalRecordsEveryMutation(t *testing.T) {
	l := journalLib(t)
	d := buildJournalDesign(t, l)
	rev := d.Revision()
	if rev == 0 {
		t.Fatal("construction should have bumped the revision")
	}
	if delta, ok := d.ChangesSince(rev); !ok || len(delta) != 0 {
		t.Fatalf("ChangesSince(current) = %d entries, ok=%v; want 0, true", len(delta), ok)
	}

	i1 := d.Instance("i1")
	old := i1.Cell
	if err := d.ReplaceCell(i1, l.Cell("INV_X1_H")); err != nil {
		t.Fatal(err)
	}
	delta, ok := d.ChangesSince(rev)
	if !ok || len(delta) != 1 {
		t.Fatalf("after ReplaceCell: %d entries, ok=%v; want 1, true", len(delta), ok)
	}
	if ch := delta[0]; ch.Kind != ChangeCellReplaced || ch.Inst != i1 || ch.OldCell != old {
		t.Fatalf("bad swap entry: %+v", ch)
	}
	if ch := delta[0]; ch.Kind.Structural() {
		t.Fatal("cell replacement must not be classified structural")
	}

	rev = d.Revision()
	if err := d.Disconnect(i1, "A"); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(i1, "A", d.NetByName("in")); err != nil {
		t.Fatal(err)
	}
	delta, ok = d.ChangesSince(rev)
	if !ok || len(delta) != 2 {
		t.Fatalf("after reconnect: %d entries, ok=%v; want 2, true", len(delta), ok)
	}
	if delta[0].Kind != ChangeDisconnected || delta[1].Kind != ChangeConnected {
		t.Fatalf("bad reconnect entries: %+v", delta)
	}
	for _, ch := range delta {
		if !ch.Kind.Structural() {
			t.Fatalf("%+v should be structural", ch)
		}
	}

	rev = d.Revision()
	d.NotePlacement(i1)
	delta, ok = d.ChangesSince(rev)
	if !ok || len(delta) != 1 || delta[0].Kind != ChangeMoved {
		t.Fatalf("after NotePlacement: %+v ok=%v", delta, ok)
	}
}

func TestJournalRemoveInstanceEmitsDisconnects(t *testing.T) {
	l := journalLib(t)
	d := buildJournalDesign(t, l)
	rev := d.Revision()
	i2 := d.Instance("i2")
	if err := d.RemoveInstance(i2); err != nil {
		t.Fatal(err)
	}
	delta, ok := d.ChangesSince(rev)
	if !ok {
		t.Fatal("history lost")
	}
	// Two disconnects in the cell's pin order (A, then ZN) plus the
	// removal, identically on every run.
	if len(delta) != 3 || delta[2].Kind != ChangeInstanceRemoved {
		t.Fatalf("bad removal journal: %+v", delta)
	}
	var got []string
	for _, ch := range delta[:2] {
		if ch.Kind != ChangeDisconnected || ch.Inst != i2 {
			t.Fatalf("bad disconnect entry: %+v", ch)
		}
		got = append(got, ch.Pin+"/"+ch.Net.Name)
	}
	if fmt.Sprint(got) != "[A/mid ZN/out]" {
		t.Fatalf("disconnect entries = %v, want [A/mid ZN/out]", got)
	}
}

func TestJournalOverflowLosesHistory(t *testing.T) {
	l := journalLib(t)
	d := buildJournalDesign(t, l)
	rev := d.Revision()
	i1 := d.Instance("i1")
	hi, lo := l.Cell("INV_X1_H"), l.Cell("INV_X1_L")
	for i := 0; i < d.journalCap()+1; i++ {
		c := hi
		if i%2 == 1 {
			c = lo
		}
		if err := d.ReplaceCell(i1, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := d.ChangesSince(rev); ok {
		t.Fatal("overflowed journal must report lost history")
	}
	// A recent revision is still replayable.
	recent := d.Revision() - 10
	delta, ok := d.ChangesSince(recent)
	if !ok || len(delta) != 10 {
		t.Fatalf("recent history: %d entries, ok=%v; want 10, true", len(delta), ok)
	}
}

func TestJournalCapScalesAndOverrides(t *testing.T) {
	l := journalLib(t)
	d := buildJournalDesign(t, l)
	if got := d.journalCap(); got != journalFloor {
		t.Fatalf("small design cap = %d, want floor %d", got, journalFloor)
	}
	// An explicit override replaces the scaled bound; <=0 restores it.
	d.SetJournalCap(8)
	if got := d.journalCap(); got != 8 {
		t.Fatalf("override cap = %d, want 8", got)
	}
	rev := d.Revision()
	i1 := d.Instance("i1")
	hi, lo := l.Cell("INV_X1_H"), l.Cell("INV_X1_L")
	for i := 0; i < 9; i++ {
		c := hi
		if i%2 == 1 {
			c = lo
		}
		if err := d.ReplaceCell(i1, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := d.ChangesSince(rev); ok {
		t.Fatal("tiny override cap must overflow after 9 swaps")
	}
	d.SetJournalCap(0)
	if got := d.journalCap(); got != journalFloor {
		t.Fatalf("restored cap = %d, want floor %d", got, journalFloor)
	}
	// The override survives Clone (the clone is the same design at scale).
	d.SetJournalCap(8)
	if got := d.Clone().journalCap(); got != 8 {
		t.Fatalf("clone cap = %d, want inherited 8", got)
	}
}

func TestJournalBulkEditInvalidates(t *testing.T) {
	l := journalLib(t)
	d := buildJournalDesign(t, l)
	rev := d.Revision()
	d.NoteBulkEdit()
	if _, ok := d.ChangesSince(rev); ok {
		t.Fatal("NoteBulkEdit must invalidate older observers")
	}
	if delta, ok := d.ChangesSince(d.Revision()); !ok || len(delta) != 0 {
		t.Fatal("the post-bulk revision must be observable")
	}
}

func TestJournalFutureRevisionRejected(t *testing.T) {
	l := journalLib(t)
	d := buildJournalDesign(t, l)
	if _, ok := d.ChangesSince(d.Revision() + 1); ok {
		t.Fatal("a revision from the future (another design) must not validate")
	}
}

func TestCloneStartsFreshJournal(t *testing.T) {
	l := journalLib(t)
	d := buildJournalDesign(t, l)
	if err := d.ReplaceCell(d.Instance("i1"), l.Cell("INV_X1_H")); err != nil {
		t.Fatal(err)
	}
	rev := d.Revision()
	c := d.Clone()
	// The clone's own revision stream is self-consistent...
	if delta, ok := c.ChangesSince(c.Revision()); !ok || len(delta) != 0 {
		t.Fatal("clone journal must be consistent at its own head")
	}
	// ...and editing the clone does not disturb the original.
	if err := c.ReplaceCell(c.Instance("i2"), l.Cell("INV_X1_H")); err != nil {
		t.Fatal(err)
	}
	if d.Revision() != rev {
		t.Fatal("editing the clone bumped the original's revision")
	}
}

func TestInsertBufferJournalsPortLoadMove(t *testing.T) {
	l := journalLib(t)
	d := buildJournalDesign(t, l)
	out := d.NetByName("out")
	rev := d.Revision()
	if _, err := d.InsertBuffer(out, l.Cell("BUF_X1_L"), []PinRef{{Port: d.PortByName("out")}}); err != nil {
		t.Fatal(err)
	}
	delta, ok := d.ChangesSince(rev)
	if !ok {
		t.Fatal("history lost")
	}
	moved := 0
	for _, ch := range delta {
		if ch.Kind == ChangeSinksMoved {
			moved++
		}
	}
	if moved != 2 {
		t.Fatalf("port-load move journaled %d ChangeSinksMoved entries, want 2:\n%s", moved, fmtChanges(delta))
	}
}

func fmtChanges(delta []Change) string {
	s := ""
	for _, ch := range delta {
		s += fmt.Sprintf("%+v\n", ch)
	}
	return s
}
