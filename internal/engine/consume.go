package engine

import (
	"fmt"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// hashValue folds one projected value into the order-insensitive checksum.
// The encoding is canonical (type-directed), so all engines produce the same
// hash for the same logical value regardless of physical layout. The hash
// itself lives in internal/vec so the batch checksum kernels share one
// definition with this boxed-value path.
func hashValue(col int, v table.Value) uint64 {
	switch v.Type {
	case geometry.Float64:
		return vec.HashF64(col, v.Float)
	case geometry.Char:
		return vec.HashChar(col, v.Bytes)
	default:
		return vec.HashI64(col, v.Int)
	}
}

// aggResult converts one term's fold state into its output value. Numeric
// results are float64 so every engine (and the fabric pushdown) reports
// comparable values; COUNT stays integral, and AVG/MIN/MAX over no rows are
// F64(0).
func aggResult(kind expr.AggKind, st vec.AggState) table.Value {
	switch kind {
	case expr.Count:
		return table.I64(st.Count)
	case expr.Sum:
		return table.F64(st.Sum)
	case expr.Avg:
		if st.Count == 0 {
			return table.F64(0)
		}
		return table.F64(st.Sum / float64(st.Count))
	case expr.Min:
		return table.F64(st.Min)
	case expr.Max:
		return table.F64(st.Max)
	default:
		panic(fmt.Sprintf("engine: unknown aggregate kind %d", uint8(kind)))
	}
}

// aggResults converts ungrouped fold states into their output values.
func aggResults(terms []AggTerm, states []vec.AggState) []table.Value {
	out := make([]table.Value, len(terms))
	for i, st := range states {
		out[i] = aggResult(terms[i].Kind, st)
	}
	return out
}

// consumer folds qualifying rows into the query's output shape and charges
// consumption CPU cycles to the engine's compute counter.
type consumer struct {
	q       Query
	compute *uint64

	rowsPassed int64
	checksum   uint64
	aggs       []vec.AggState // ungrouped aggregation
	groups     *groupTable
	keyVals    []table.Value // the current row's group key
}

func newConsumer(q Query, schema *geometry.Schema, compute *uint64) *consumer {
	c := &consumer{q: q, compute: compute, groups: newQueryGroups(q, schema)}
	if c.groups != nil {
		c.keyVals = make([]table.Value, len(q.GroupBy))
	} else if len(q.Aggregates) > 0 {
		c.aggs = make([]vec.AggState, len(q.Aggregates))
	}
	return c
}

// consumeRow folds one qualifying row. fetch returns the (already loaded and
// charged) value of a schema column; the consumer charges only its own
// folding work.
func (c *consumer) consumeRow(fetch func(col int) table.Value) {
	c.rowsPassed++
	if len(c.q.Aggregates) == 0 {
		for _, col := range c.q.Projection {
			c.checksum += hashValue(col, fetch(col))
			*c.compute += ChecksumCycles
		}
		return
	}

	states := c.aggs
	if c.groups != nil {
		for i, col := range c.q.GroupBy {
			c.keyVals[i] = fetch(col)
		}
		*c.compute += HashGroupCycles
		gid := c.groups.lookup(c.keyVals)
		c.groups.counts[gid]++
		states = c.groups.aggs(gid)
	}

	for i, t := range c.q.Aggregates {
		*c.compute += AggAddCycles
		if t.Arg == nil {
			states[i].AddCount(1)
			continue
		}
		*c.compute += uint64(t.Arg.Ops() * ScalarOpCycles)
		states[i].Add(t.Arg.EvalF(fetch))
	}
}

// finish assembles the result shape (without the cost breakdown).
func (c *consumer) finish(engineName string, rowsScanned int64) *Result {
	r := &Result{
		Engine:      engineName,
		RowsScanned: rowsScanned,
		RowsPassed:  c.rowsPassed,
		Checksum:    c.checksum,
	}
	if c.aggs != nil {
		r.Aggs = aggResults(c.q.Aggregates, c.aggs)
	}
	if c.groups != nil {
		r.Groups = c.groups.rows(c.q.Aggregates)
	}
	return r
}
