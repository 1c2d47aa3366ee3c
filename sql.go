package cubetree

import (
	"fmt"

	"cubetree/internal/sqlish"
)

// QuerySQL answers a slice query written in the restricted SQL dialect the
// paper's Datablade exposed:
//
//	SELECT partkey, sum(quantity) FROM sales
//	WHERE custkey = 42 AND suppkey BETWEEN 1 AND 10
//	GROUP BY partkey
//
// Supported aggregates are SUM, COUNT, AVG, MIN and MAX (MIN/MAX require
// Config.ExtraMeasures; without them the statement fails before any scan).
// It returns the column headers and the formatted result rows in canonical
// order.
func (w *Warehouse) QuerySQL(sql string) (headers []string, rows [][]string, err error) {
	st, err := sqlish.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	if _, err := st.Resolve(w.schema); err != nil {
		return nil, nil, err
	}
	res, err := w.Query(st.Query)
	if err != nil {
		return nil, nil, err
	}
	return st.Format(res, w.schema)
}

// Explain describes the placement the planner would use for q: the view
// (or replica) chosen and the estimated points touched. It is the
// warehouse-level view of the paper's Section 3.3 plan calibration.
func (w *Warehouse) Explain(q Query) (string, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	info, err := w.forest.Plan(q)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s -> %s on tree %d (est. cost %.1f points)",
		q, info.Placement.View, info.Placement.Tree, info.EstLeaves), nil
}

// ExplainSQL parses sql and describes its plan.
func (w *Warehouse) ExplainSQL(sql string) (string, error) {
	st, err := sqlish.Parse(sql)
	if err != nil {
		return "", err
	}
	return w.Explain(st.Query)
}
