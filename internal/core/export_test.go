package core

import (
	"context"

	"cubetree/internal/workload"
)

// SetHashFold sends every query through the hash fold while on is true, so
// tests can check the run-length fold against it.
func SetHashFold(on bool) { hashFoldOnly = on }

// ExecuteOn answers q on the placement at index i of Placements.
func (f *Forest) ExecuteOn(i int, q workload.Query) ([]workload.Row, error) {
	rows, _, err := f.executeOn(context.Background(), &f.placements[i], q, nil)
	return rows, err
}

// FoldPlanOn reports how the placement at index i folds q: whether its
// points arrive grouped, and the sort prefix.
func (f *Forest) FoldPlanOn(i int, q workload.Query) (grouped bool, prefix int, err error) {
	p := &f.placements[i]
	groupPos, major := make([]int, len(q.Node)), make([]int, len(q.Node))
	if err := groupPositions(p, q, groupPos); err != nil {
		return false, 0, err
	}
	grouped, prefix = foldOrder(p, q, groupPos, major)
	return grouped, prefix, nil
}

// PlanIndex is the index in Placements of the planner's choice for q.
func (f *Forest) PlanIndex(q workload.Query) (int, error) { return f.plan(q) }
