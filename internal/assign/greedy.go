package assign

import (
	"sort"

	"selectivemt/internal/netlist"
	"selectivemt/internal/sta"
)

// greedy is the paper's slack-ordered pass, extracted verbatim from the
// dualvth swap loops: tentatively commit the most-slack candidates
// under a locally estimated, safety-scaled delay budget; re-time; when
// over-committed revert every movable instance on a violating path and
// try again. Its committed netlist is byte-identical to the
// pre-refactor assignFlavor/RecoverSizing loops (oracle-enforced in
// internal/dualvth's regression tests): candidate order, the budget
// bookkeeping per output-net cone, the pass structure and the final
// verification pass are all preserved.
type greedy struct{}

func (greedy) Name() string { return "greedy" }

func (greedy) Run(inc *sta.Incremental, p Problem, opts Options) (*Result, error) {
	res := &Result{Workers: 1}
	for pass := 0; pass < opts.MaxPasses; pass++ {
		res.Passes = pass + 1
		timing, err := inc.Update()
		if err != nil {
			return res, err
		}
		res.Timing = timing
		if timing.WNS < opts.SlackMarginNs {
			// Over-committed: revert the most critical moved cells.
			reverted, err := revertAll(p, timing, res)
			if err != nil {
				return res, err
			}
			if reverted == 0 {
				break // cannot improve further
			}
			continue
		}
		committed, err := greedyPass(p, timing, opts, res)
		if err != nil {
			return res, err
		}
		if committed == 0 {
			break
		}
	}
	// Final verification pass: when the loop just exited with fresh
	// timing and zero commits the design revision is unchanged and this
	// is a free no-op rather than a redundant full re-analysis.
	timing, err := inc.Update()
	if err != nil {
		return res, err
	}
	res.Timing = timing
	if timing.WNS < opts.SlackMarginNs {
		if _, err := revertAll(p, timing, res); err != nil {
			return res, err
		}
		timing, err = inc.Update()
		if err != nil {
			return res, err
		}
		res.Timing = timing
	}
	res.Moved, res.Kept = p.Tally()
	return res, nil
}

// greedyPass commits one most-slack-first batch. The per-output-net
// budget charges each cone for the slack its committed moves consumed,
// exactly as the pre-refactor swapPass did.
func greedyPass(p Problem, timing *sta.Result, opts Options, res *Result) (int, error) {
	moves := p.Candidates(timing, nil)
	// Most slack first: the cheapest moves commit earliest.
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].SlackNs > moves[j].SlackNs })
	budget := make(map[*netlist.Net]float64) // consumed slack per output net cone
	committed := 0
	for _, m := range moves {
		out := m.Inst.OutputNet()
		used := 0.0
		if out != nil {
			used = budget[out]
		}
		if m.SlackNs-used-opts.SafetyFactor*m.DeltaNs <= opts.SlackMarginNs {
			continue
		}
		if err := p.Apply(m); err != nil {
			res.Commits += committed
			return committed, err
		}
		if out != nil {
			budget[out] = used + opts.SafetyFactor*m.DeltaNs
		}
		committed++
	}
	res.Commits += committed
	return committed, nil
}

// revertAll applies every revert candidate in the problem's critical
// order — the pre-refactor revertCritical behavior.
func revertAll(p Problem, timing *sta.Result, res *Result) (int, error) {
	moves, err := p.RevertCandidates(timing, nil)
	if err != nil {
		return 0, err
	}
	reverted := 0
	for _, m := range moves {
		if err := p.Apply(m); err != nil {
			res.Reverts += reverted
			return reverted, err
		}
		reverted++
	}
	res.Reverts += reverted
	return reverted, nil
}
