package main

import (
	"testing"

	"selectivemt/internal/core"
	"selectivemt/internal/flow"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", StartS: 0, EndS: 10},
		{ID: 2, Parent: 1, Op: 1, Name: "stage.a", StartS: 1, EndS: 3},
		{ID: 3, Parent: 1, Op: 1, Name: "stage.b", StartS: 2, EndS: 5},  // overlaps stage.a
		{ID: 4, Parent: 1, Op: 1, Name: "stage.a", StartS: 8, EndS: 12}, // runs past its parent
		{ID: 5, Parent: 3, Op: 1, Name: "inner", StartS: 2.5, EndS: 3},
		{ID: 6, Op: 2, Name: "op", StartS: 20, EndS: 21},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 4 - 2, 2: 2, 3: 2.5, 4: 4, 5: 0.5, 6: 1}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byOp := selfByOp(spans)
	if got := byOp[1]["stage.a"]; got != 6 {
		t.Errorf("op 1 stage.a self time = %v, want 6", got)
	}
	if got := byOp[2]["op"]; got != 1 {
		t.Errorf("op 2 self time = %v, want 1", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", 0, 1)
	tr.end(id)
	if err := tr.do("x", id, 1, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if tr.observer(id, 1) != nil || tr.snapshot() != nil {
		t.Error("a nil tracer must hand out no observer and no spans")
	}
}

func TestObserverNestsStageSpans(t *testing.T) {
	tr := newTracer()
	op := tr.begin("op", 0, 7)
	obs := tr.observer(op, 7)
	for _, name := range []string{core.StageNameAssignNoVGND, core.StageNameMeasure} {
		obs(flow.Event{Stage: name, State: flow.StageRunning})
		obs(flow.Event{Stage: name, State: flow.StageDone})
	}
	obs(flow.Event{Stage: core.StageNameSignoff, State: flow.StageSkipped})
	tr.end(op)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want op plus two stages: %+v", len(spans), spans)
	}
	for i, want := range []string{"stage.assign", "stage.measure"} {
		s := spans[i+1]
		if s.Name != want || s.Parent != op || s.Op != 7 || s.EndS < s.StartS {
			t.Errorf("span %d = %+v, want %s under op %d", i+1, s, want, op)
		}
	}
}
