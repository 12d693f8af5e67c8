package flow

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a concurrency-safe name → pipeline table. Names are
// case-insensitive ("Improved-SMT" and "improved-smt" address the same
// pipeline), so a CLI flag or a JSON job spec can name a technique
// without knowing its display casing.
type Registry[S any] struct {
	mu    sync.RWMutex
	byKey map[string]*Pipeline[S]
}

// NewRegistry returns an empty registry.
func NewRegistry[S any]() *Registry[S] {
	return &Registry[S]{byKey: make(map[string]*Pipeline[S])}
}

// Register adds a pipeline under its name. Registering an empty name,
// a pipeline with no stages, or a name already taken is an error —
// silently replacing a technique would make results depend on
// registration order.
func (r *Registry[S]) Register(p *Pipeline[S]) error {
	if p == nil || strings.TrimSpace(p.Name()) == "" {
		return fmt.Errorf("flow: pipeline needs a name")
	}
	if len(p.stages) == 0 {
		return fmt.Errorf("flow: pipeline %s has no stages", p.Name())
	}
	key := strings.ToLower(strings.TrimSpace(p.Name()))
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byKey[key]; ok {
		return fmt.Errorf("flow: pipeline name %q already registered (as %s)", p.Name(), prev.Name())
	}
	r.byKey[key] = p
	return nil
}

// Get looks a pipeline up by name, case-insensitively.
func (r *Registry[S]) Get(name string) (*Pipeline[S], bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.byKey[strings.ToLower(strings.TrimSpace(name))]
	return p, ok
}

// Names lists the registered pipelines' display names, sorted.
func (r *Registry[S]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byKey))
	for _, p := range r.byKey { // rangemap:ok sorted before returning
		out = append(out, p.Name())
	}
	sort.Strings(out)
	return out
}
