// Package assign is the Vth-assignment strategy subsystem: the
// select/commit/revert policy that used to be hardwired into the
// dual-Vth swap loops, extracted behind a Strategy interface so
// alternate policies drop in as registrations instead of surgery.
//
// A Strategy drives one Problem (a swap domain — flavor assignment or
// drive resizing) on an incremental timer, always through Run, which
// validates the Options and enforces the Result contract. Two builtins
// ship:
//
//   - "greedy": the paper's slack-ordered pass — most-slack-first
//     commits under a locally estimated delay budget, full critical
//     reverts when over-committed. Byte-identical by construction to
//     the pre-refactor dualvth loops (oracle-enforced).
//   - "sensitivity": candidates ordered by leakage saved per slack
//     consumed using a per-(cell, flavor) leakage LUT built once per
//     library, committed from per-cluster lanes in adaptive batches with
//     incremental re-timing between batches, and unwound worst slack
//     first when a batch overshoots (lanes.go).
//
// Future strategies (simulated annealing, ILP relaxations, cluster
// sizing) register themselves the same way.
package assign

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sta"
)

// DefaultStrategy names the strategy an empty selection resolves to.
const DefaultStrategy = "greedy"

// Named errors. Parse rejects unregistered names; Validate (and so Run)
// rejects nonsensical options, wrapped with the offending value, instead
// of silently substituting defaults.
var (
	// ErrUnknownStrategy reports a strategy name with no registration,
	// or a nil Strategy handed to Run.
	ErrUnknownStrategy = errors.New("assign: unknown strategy")
	// ErrNonPositivePasses rejects MaxPasses <= 0.
	ErrNonPositivePasses = errors.New("assign: MaxPasses must be positive")
	// ErrNonPositiveSafety rejects SafetyFactor <= 0 (or NaN).
	ErrNonPositiveSafety = errors.New("assign: SafetyFactor must be positive")
	// ErrNonPositiveBatch rejects BatchSize <= 0.
	ErrNonPositiveBatch = errors.New("assign: BatchSize must be positive")
	// ErrBadSlackMargin rejects a negative or non-finite slack margin.
	ErrBadSlackMargin = errors.New("assign: SlackMarginNs must be finite and non-negative")
)

// Options tunes an assignment run. The zero value is deliberately
// invalid: callers state their knobs or start from DefaultOptions, and
// Run rejects anything Validate does.
type Options struct {
	// SlackMarginNs is the slack every committed move must preserve.
	SlackMarginNs float64
	// MaxPasses bounds the re-time/commit/revert iterations.
	MaxPasses int
	// SwapFlops allows DFF Vth moves too (flavor problems only).
	SwapFlops bool
	// SafetyFactor scales the locally estimated delay increase before
	// comparing against slack (covers path reconvergence).
	SafetyFactor float64
	// BatchSize is the sensitivity strategy's initial and minimum
	// adaptive commit batch, and its unwind batch. Greedy commits a
	// whole pass at once and ignores it, but it must still be positive.
	BatchSize int
}

// DefaultOptions returns the options used in the experiments.
func DefaultOptions() Options {
	return Options{
		MaxPasses:    12,
		SwapFlops:    true,
		SafetyFactor: 1.5,
		// Enough swaps to amortize an incremental re-time, few enough
		// that stale-slack overcommit stays shallow.
		BatchSize: 64,
	}
}

// Validate rejects nonsensical option values with the named errors.
func (o Options) Validate() error {
	if o.MaxPasses <= 0 {
		return fmt.Errorf("%w, got %d", ErrNonPositivePasses, o.MaxPasses)
	}
	if math.IsNaN(o.SafetyFactor) || o.SafetyFactor <= 0 {
		return fmt.Errorf("%w, got %v", ErrNonPositiveSafety, o.SafetyFactor)
	}
	if o.BatchSize <= 0 {
		return fmt.Errorf("%w, got %d", ErrNonPositiveBatch, o.BatchSize)
	}
	if math.IsNaN(o.SlackMarginNs) || math.IsInf(o.SlackMarginNs, 0) || o.SlackMarginNs < 0 {
		return fmt.Errorf("%w, got %v", ErrBadSlackMargin, o.SlackMarginNs)
	}
	return nil
}

// Move is one candidate cell rebind: an instance and the variant a
// strategy may commit it to, scored under the timing snapshot the
// candidates were enumerated against.
type Move struct {
	Inst *netlist.Instance
	To   *liberty.Cell
	// SlackNs is the instance's output setup slack at enumeration.
	SlackNs float64
	// DeltaNs is the locally estimated worst-arc delay increase of
	// committing the move (the slack the move consumes, pre-safety).
	DeltaNs float64
	// LeakSavedMW is the powered-leakage reduction the move buys
	// (from the library LUT; 0 when the problem tracks no leakage).
	LeakSavedMW float64
}

// Problem abstracts one swap domain: which instances may move where,
// and how over-commitment unwinds. Implementations enumerate in
// deterministic design-instance order; strategies own the ordering,
// batching and revert policy on top. The enumeration methods append
// into a caller-owned buffer so steady-state strategy loops re-enumerate
// without reallocating.
type Problem interface {
	// Candidates appends the legal moves under fresh timing to buf
	// (callers pass buf[:0] to reuse its capacity) and returns the
	// extended slice.
	Candidates(timing *sta.Result, buf []Move) []Move
	// RevertCandidates appends the moves that would unwind instances
	// violating the slack margin (most problems rebind them toward the
	// fast end of their ladder), with the same buffer contract.
	RevertCandidates(timing *sta.Result, buf []Move) ([]Move, error)
	// Rescore refreshes a move's timing-dependent fields (SlackNs,
	// DeltaNs) against a newer analysis, leaving the library-derived
	// ones untouched — the lane engine's incremental re-scoring hook.
	Rescore(m *Move, timing *sta.Result)
	// Apply commits a move on the design.
	Apply(Move) error
	// Tally counts the movable population after the run: instances
	// ending at the problem's target versus instances kept off it.
	Tally() (moved, kept int)
}

// PhaseTimes is the wall-clock an assignment run spent per phase. The
// four phases partition the strategy's work: score (candidate
// enumeration, bucketing and ordering), commit (selection, guards and
// design edits), retime (incremental timing updates between batches)
// and unwind (revert selection and edits). Retime time inside an unwind
// loop counts as retime, so the fields never double-book.
type PhaseTimes struct {
	ScoreNs  int64
	CommitNs int64
	RetimeNs int64
	UnwindNs int64
}

// Result reports an assignment outcome.
type Result struct {
	// Moved/Kept is the problem's final population tally.
	Moved, Kept int
	// Passes counts re-time iterations the strategy ran.
	Passes int
	// Commits/Reverts count individual moves committed and unwound —
	// the work the strategy did, not the net population change.
	Commits, Reverts int
	// Timing is the final verified analysis.
	Timing *sta.Result
	// Timer is the incremental timer the run re-timed (Timing is its
	// live result). The caller may keep updating it past the run.
	Timer *sta.Incremental
	// Phases breaks the run's wall-clock down by phase.
	Phases PhaseTimes
	// Workers is the effective lane fan-out the run used (greedy and
	// one-lane timers run one).
	Workers int
}

// Strategy drives the select/commit/revert loop of one Problem on an
// incremental timer until convergence or the pass budget runs out.
// Callers go through Run, so implementations see validated Options.
type Strategy interface {
	Name() string
	Run(inc *sta.Incremental, p Problem, opts Options) (*Result, error)
}

// Run is the one way to call a strategy. It validates opts, runs s on
// p and enforces the result contract: the Result is non-nil, its Timing
// is the analysis of the design as s left it, and its Timer is inc. A
// strategy that returns no timing, or timing older than its last edit,
// costs one more incremental update here instead of a nil or stale read
// later.
func Run(s Strategy, inc *sta.Incremental, p Problem, opts Options) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil strategy", ErrUnknownStrategy)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	r, err := s.Run(inc, p, opts)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("assign: strategy %q returned no result", s.Name())
	}
	if r.Timing == nil || r.Timing.Revision != inc.Design().Revision() {
		if r.Timing, err = inc.Update(); err != nil {
			return nil, err
		}
	}
	r.Timer = inc
	return r, nil
}

// registry is the process-wide strategy table. The builtins register
// at init; embedding programs add theirs via Register.
var registry = struct {
	sync.RWMutex
	m map[string]Strategy
}{m: make(map[string]Strategy)}

// Register adds a strategy under its (case-insensitive) name. Names
// must be non-empty and unused.
func Register(s Strategy) error {
	name := strings.ToLower(strings.TrimSpace(s.Name()))
	if name == "" {
		return fmt.Errorf("assign: strategy has no name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("assign: strategy %q already registered", name)
	}
	registry.m[name] = s
	return nil
}

// Lookup finds a registered strategy by name, case-insensitively.
func Lookup(name string) (Strategy, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.m[strings.ToLower(strings.TrimSpace(name))]
	return s, ok
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m { // rangemap:ok sorted before returning
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parse resolves a strategy selection: empty means DefaultStrategy,
// anything else must be registered. The error wraps
// ErrUnknownStrategy and names the valid choices.
func Parse(name string) (Strategy, error) {
	if strings.TrimSpace(name) == "" {
		name = DefaultStrategy
	}
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownStrategy, name, strings.Join(Names(), ", "))
	}
	return s, nil
}

func init() {
	for _, s := range []Strategy{greedy{}, sensitivity{}} {
		if err := Register(s); err != nil {
			panic(err)
		}
	}
}
