package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"selectivemt/internal/core"
	"selectivemt/internal/flow"
)

// span is one timed interval of a traced run. Spans nest op → technique or
// job → stage; probes are roots of their own that carry the op id.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.EndS - s.StartS }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartS: now, EndS: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].EndS = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, op int, fn func() error) error {
	id := t.begin(name, parent, op)
	defer t.end(id)
	return fn()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// observer turns a pipeline's stage events into stage spans under parent.
// Stages of one pipeline run strictly one after another, so one open span
// at a time suffices.
func (t *tracer) observer(parent, op int) flow.Observer {
	if t == nil {
		return nil
	}
	open := 0
	return func(ev flow.Event) {
		switch ev.State {
		case flow.StageRunning:
			open = t.begin("stage."+stageSlug(ev.Stage), parent, op)
		case flow.StageDone, flow.StageFailed:
			t.end(open)
			open = 0
		}
	}
}

// stageSlug is the short layer name of a built-in stage.
func stageSlug(stage string) string {
	switch stage {
	case core.StageNameDualVthAssign, core.StageNameAssignEmbedded, core.StageNameAssignNoVGND:
		return "assign"
	case core.StageNameVGNDConvert:
		return "vgnd-convert"
	case core.StageNameSwitchStructure:
		return "switch-structure"
	case core.StageNameMTE:
		return "mte"
	case core.StageNameCTS:
		return "cts"
	case core.StageNameHoldECO:
		return "hold-eco"
	case core.StageNameMeasure:
		return "measure"
	case core.StageNameReoptimize:
		return "reopt"
	case core.StageNameSignoff:
		return "signoff"
	}
	return stage
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, keyed by span id.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the kids' intervals clipped to parent.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartS < kids[j].StartS })
	total, lo, hi := 0.0, 0.0, 0.0
	open := false
	for _, k := range kids {
		a, b := max(k.StartS, parent.StartS), min(k.EndS, parent.EndS)
		if b <= a {
			continue
		}
		switch {
		case !open:
			lo, hi, open = a, b, true
		case a > hi:
			total += hi - lo
			lo, hi = a, b
		default:
			hi = max(hi, b)
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// selfByOp sums self time per op and span name.
func selfByOp(spans []span) map[int]map[string]float64 {
	self := selfTimes(spans)
	out := map[int]map[string]float64{}
	for _, s := range spans {
		if out[s.Op] == nil {
			out[s.Op] = map[string]float64{}
		}
		out[s.Op][s.Name] += self[s.ID]
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
