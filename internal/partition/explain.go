package partition

import (
	"hermit/internal/engine"
)

// Plan is the partitioned planner's costed decision for one predicate, as
// returned by Table.Explain: the fan-out shape plus one engine plan per
// executing partition (each partition's planner costs the predicate
// against its own statistics and runtime feedback, so two partitions may
// legitimately choose different access paths).
type Plan struct {
	// Table and Column identify the predicate target; Lo/Hi its range.
	Table  string
	Column string
	Col    int
	Lo, Hi float64
	// FanOut is the number of partitions the query would execute on.
	FanOut int
	// Routed reports whether the predicate runs on a single partition (the
	// primary-key hash owner, or the only one); Part is that partition
	// when it does.
	Routed bool
	Part   int
	// PerPartition holds each executing partition's costed plan, indexed
	// by partition (only Part's entry is set for routed predicates).
	PerPartition []engine.Plan
	// TotalCostNS sums the chosen path's predicted latency across
	// executing partitions — the work the scatter performs.
	TotalCostNS float64
	// CriticalCostNS is the largest per-partition predicted latency — the
	// parallel lower bound the gather waits for.
	CriticalCostNS float64
}

// Explain plans the range predicate lo <= col <= hi without executing it:
// it reports whether the query routes or fans out, and each executing
// partition's costed engine plan.
func (t *Table) Explain(col int, lo, hi float64) (Plan, error) {
	plan := Plan{
		Table:        t.name,
		Col:          col,
		Lo:           lo,
		Hi:           hi,
		PerPartition: make([]engine.Plan, len(t.parts)),
	}
	if col >= 0 && col < len(t.cols) {
		plan.Column = t.cols[col]
	}
	if t.routes(col, lo, hi) {
		p := t.owner(lo)
		ep, err := t.parts[p].Explain(col, lo, hi)
		if err != nil {
			return Plan{}, err
		}
		plan.FanOut, plan.Routed, plan.Part = 1, true, p
		plan.PerPartition[p] = ep
		cost := chosenCostNS(ep)
		plan.TotalCostNS, plan.CriticalCostNS = cost, cost
		return plan, nil
	}
	plan.FanOut = len(t.parts)
	for i, part := range t.parts {
		ep, err := part.Explain(col, lo, hi)
		if err != nil {
			return Plan{}, err
		}
		plan.PerPartition[i] = ep
		cost := chosenCostNS(ep)
		plan.TotalCostNS += cost
		if cost > plan.CriticalCostNS {
			plan.CriticalCostNS = cost
		}
	}
	return plan, nil
}

// chosenCostNS extracts the chosen path's predicted latency from an engine
// plan.
func chosenCostNS(p engine.Plan) float64 {
	for _, c := range p.Candidates {
		if c.Path == p.Chosen {
			return c.CostNS
		}
	}
	return 0
}
