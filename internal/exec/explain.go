package exec

import (
	"fmt"
	"strings"

	"tscout/internal/sim"
	"tscout/internal/storage"
)

// explainPlan is an analyzed EXPLAIN [ANALYZE]: the inner statement's own
// Prepared, so what EXPLAIN prints is the plan the executor runs.
type explainPlan struct {
	analyze bool
	inner   *Prepared
}

func (x *explainPlan) run(e *Engine, ctx *Ctx, params []storage.Value) (*Result, error) {
	return e.explain(ctx, x.inner, x.analyze, params)
}

// Explain runs plain EXPLAIN over an already prepared statement, as
// preparing and running "EXPLAIN <statement>" would.
func (e *Engine) Explain(ctx *Ctx, p *Prepared, params []storage.Value) (*Result, error) {
	ctx.resetScratch()
	return e.explain(ctx, p, false, params)
}

// explain implements EXPLAIN [ANALYZE] — the external feature-collection
// path the paper's §2.2/§2.3 argue against for online training data. Plain
// EXPLAIN pays the re-planning work the paper calls out ("EXPLAIN is meant
// to be an infrequent operation that regenerates the query plan"); EXPLAIN
// ANALYZE additionally executes the statement, annotating the plan with
// actual row counts and elapsed time while discarding the client results.
func (e *Engine) explain(ctx *Ctx, p *Prepared, analyze bool, params []storage.Value) (*Result, error) {
	d, ok := p.plan.(explainable)
	if !ok {
		return nil, fmt.Errorf("exec: cannot explain %T", p.stmt)
	}
	lines, err := d.describe(ctx, params)
	if err != nil {
		return nil, err
	}
	// Re-planning the statement is real work external collectors impose.
	ctx.Task.Charge(sim.Work{
		Instructions: 2200 + 300*float64(len(lines)),
		BytesTouched: 512,
		AllocBytes:   int64(64 * len(lines)),
	})

	if analyze {
		start := ctx.Task.Now()
		res, err := p.plan.run(e, ctx, params)
		if err != nil {
			return nil, err
		}
		elapsed := ctx.Task.Now() - start
		rows := len(res.Rows)
		if len(res.Cols) == 0 {
			rows = res.Affected
		}
		lines = append(lines,
			fmt.Sprintf("Actual rows: %d", rows),
			fmt.Sprintf("Execution time: %.3f ms", float64(elapsed)/1e6))
	}

	out := &Result{Cols: []string{"QUERY PLAN"}}
	for _, l := range lines {
		out.Rows = append(out.Rows, storage.Row{storage.NewString(l)})
	}
	return out, nil
}

func (sp *selectPlan) describe(ctx *Ctx, params []storage.Value) ([]string, error) {
	from, err := sp.from.describe(ctx, params)
	if err != nil {
		return nil, err
	}
	lines := []string{from}
	for i := range sp.joins {
		j := &sp.joins[i]
		right, err := j.access.describe(ctx, params)
		if err != nil {
			return nil, err
		}
		lines = append(lines,
			fmt.Sprintf("Hash Join on %s = %s", j.clause.LeftCol, j.clause.RightCol),
			"  -> "+right)
	}
	if sp.agg != nil {
		lines = append(lines, fmt.Sprintf("Aggregate (groups=%d keys)", len(sp.agg.groupIdxs)))
	}
	if len(sp.sort) > 0 {
		lines = append(lines, fmt.Sprintf("Sort (%d keys)", len(sp.sort)))
	}
	if sp.limit >= 0 {
		lines = append(lines, fmt.Sprintf("Limit %d", sp.limit))
	}
	return lines, nil
}

func (ip *insertPlan) describe(*Ctx, []storage.Value) ([]string, error) {
	return []string{fmt.Sprintf("Insert into %s (%d rows)", ip.table.Name, len(ip.rows))}, nil
}

func (up *updatePlan) describe(ctx *Ctx, params []storage.Value) ([]string, error) {
	scan, err := up.access.describe(ctx, params)
	if err != nil {
		return nil, err
	}
	return []string{
		fmt.Sprintf("Update %s (%d assignments)", up.access.table.Name, len(up.setCols)),
		"  -> " + scan,
	}, nil
}

func (dp *deletePlan) describe(ctx *Ctx, params []storage.Value) ([]string, error) {
	scan, err := dp.access.describe(ctx, params)
	if err != nil {
		return nil, err
	}
	return []string{"Delete from " + dp.access.table.Name, "  -> " + scan}, nil
}

// describe renders the access path as bound to params.
func (a *accessPlan) describe(ctx *Ctx, params []storage.Value) (string, error) {
	ap, err := a.bind(ctx, params)
	if err != nil {
		return "", err
	}
	return a.accessLine(ap), nil
}

func (a *accessPlan) accessLine(ap accessPath) string {
	tbl := ap.table
	switch {
	case tbl.Virtual != nil:
		return fmt.Sprintf("Virtual Scan on %s (%d pushdown predicates)",
			tbl.Name, len(ap.residual))
	case ap.index == nil:
		return fmt.Sprintf("Seq Scan on %s (rows=%d, %d residual predicates)",
			tbl.Name, ap.table.Heap.NumSlots(), len(ap.residual))
	case ap.exact:
		return fmt.Sprintf("Index Scan using %s on %s (key=%d)",
			ap.index.Name, tbl.Name, ap.key)
	}
	// A range names the bounds that narrowed it, or "prefix range".
	var bounds []string
	for _, i := range []int{a.lower, a.upper} {
		if b := intBound(ap.residual, i); b != nil {
			bounds = append(bounds, fmt.Sprintf("%s %s %d",
				tbl.Heap.Schema().Column(b.col).Name, b.op, b.val.AsInt()))
		}
	}
	if bounds == nil {
		bounds = []string{"prefix range"}
	}
	keys := "no keys"
	if ap.keyLo <= ap.keyHi {
		keys = fmt.Sprintf("keys %d..%d", ap.keyLo, ap.keyHi)
	}
	return fmt.Sprintf("Index Range Scan using %s on %s (%s: %s)",
		ap.index.Name, tbl.Name, strings.Join(bounds, " AND "), keys)
}
