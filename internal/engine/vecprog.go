package engine

import (
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/vec"
)

// The vectorized scan path splits each engine's hot loop into batch stages:
// bulk decode of the touched columns into typed lanes, predicate kernels
// that refine a selection vector (recording where each dropped row failed),
// a charge-replay loop that issues the *exact* per-row Hier.Load sequence
// and compute charges of the scalar interpreter, and consumption kernels
// over the surviving selection. The modeled cost depends only on the
// ordered Load sequence and the compute totals, and the replay reproduces
// both — same order, same counts — so Breakdown, spans, and timelines are
// unchanged; only wall-clock time and allocations drop.
//
// scanProg is the per-query compilation of that plan: the distinct columns
// the scan touches ("slots", in first-touch order), the predicate operands
// pre-unboxed per type, and — for every short-circuit outcome (failed at
// predicate d, or passed) — the slots the scalar path would have loaded and
// the constant compute charge it would have accumulated.

// vecBatchRows is the engines' batch width.
const vecBatchRows = vec.BatchRows

type slotKind uint8

const (
	slotI64 slotKind = iota
	slotI32
	slotF64
	slotChar
)

// vecSlot is one distinct column the scan touches.
type vecSlot struct {
	col   int
	kind  slotKind
	off   int64 // byte offset within the addressing unit (payload / packed row)
	width int
	lane  int // index into the scratch lane pools; -1 for CHAR (read in place)
}

// vecPred is one predicate with its operand pre-unboxed.
type vecPred struct {
	slot int
	op   expr.CmpOp
	opI  int64
	opF  float64
	opB  []byte // TrimPad-ed CHAR operand
}

// vecAgg is one aggregate term. simple >= 0 folds straight from that slot's
// lane; otherwise the term's scalar tree is evaluated over compacted lanes.
type vecAgg struct {
	term   AggTerm
	simple int
}

// vecCharges parameterizes the per-engine scalar cost constants the replay
// reproduces.
type vecCharges struct {
	perRow   uint64 // charged per visited row (VolcanoNextCycles for ROW, 0 for RM/COL)
	predEval uint64 // per predicate evaluation
	fetch    uint64 // per first column touch of a row
}

var (
	rowVecCharges = vecCharges{perRow: VolcanoNextCycles, predEval: PredEvalCycles, fetch: ExtractCycles}
	rmVecCharges  = vecCharges{perRow: 0, predEval: VectorOpCycles, fetch: VectorOpCycles}
	colVecCharges = vecCharges{perRow: 0, predEval: 0, fetch: VectorOpCycles}
)

type scanProg struct {
	slots []vecSlot
	preds []vecPred

	// loadSlots[d] / loadOffs[d] is the ordered first-touch load program of
	// a row that fails at predicate d (d < len(preds)) or passes and takes
	// pass outcome d-len(preds) (a scan has one; a join side's sink may
	// have several): slot indices and their byte offsets within the
	// addressing unit. charge[d] is the matching constant compute charge
	// (predicate evals + column fetches + consumption for the pass case).
	loadSlots [][]int32
	loadOffs  [][]int64
	charge    []uint64
	perRow    uint64

	// Consumption shape: projCols/projSlot enumerate projection entries
	// (duplicates included — each entry is charged and folded); aggs hold
	// aggregate terms; groupSlots are the GROUP BY key columns, in order.
	projCols   []int
	projSlot   []int32
	aggs       []vecAgg
	groupSlots []int32

	nI64, nF64 int // lane counts by type
	evalDepth  int // scratch lanes needed by derived scalar evaluation
}

// vecBatch is one decoded batch as a sink sees it: the program and the
// scratch lanes it decoded, the batch's source bytes (CHAR columns are read
// in place at base + slot offset + row*stride), and the surviving batch
// rows.
type vecBatch struct {
	prog   *scanProg
	sc     *scanScratch
	src    []byte
	base   int
	stride int
	sel    []int32
}

// vecSink consumes each batch's survivors in place of the scan's consumer
// (the join sides). It runs before charge replay and returns, per batch
// row, the pass outcome taken (counted past the predicate outcomes) and a
// variable compute charge; nil slices mean outcome 0 and no extra charge.
type vecSink func(b vecBatch) (outcome []int16, extra []uint64)

// progBuilder assembles a scanProg: slots in first-touch order, and one
// outcome per way a row can leave the scalar loop, each the ordered list of
// columns the row first-touched by then and its constant compute charge.
type progBuilder struct {
	p       *scanProg
	sch     *geometry.Schema
	offs    []int
	ch      vecCharges
	slotOf  []int // slot+1 per column, 0 before its first use
	touched []bool
	seq     []int32
}

// newProgBuilder starts a program over sch whose CPU predicates are sel:
// one fail outcome per predicate, built as the scalar short-circuit would
// first-touch columns.
func newProgBuilder(sch *geometry.Schema, sel expr.Conjunction, offs []int, ch vecCharges) progBuilder {
	b := progBuilder{p: &scanProg{perRow: ch.perRow}, sch: sch, offs: offs, ch: ch,
		slotOf: make([]int, sch.NumColumns()), touched: make([]bool, sch.NumColumns())}
	for d, pr := range sel {
		b.touch(pr.Col)
		si := b.slot(pr.Col)
		vp := vecPred{slot: si, op: pr.Op}
		switch b.p.slots[si].kind {
		case slotI64, slotI32:
			vp.opI = pr.Operand.Int
		case slotF64:
			vp.opF = pr.Operand.Float
		case slotChar:
			vp.opB = vec.TrimPad(pr.Operand.Bytes)
		}
		b.p.preds = append(b.p.preds, vp)
		b.outcome(d+1, 0)
	}
	return b
}

// slot returns col's slot, adding it (with a typed lane) on first use.
func (b *progBuilder) slot(col int) int {
	if si := b.slotOf[col]; si > 0 {
		return si - 1
	}
	p := b.p
	c := b.sch.Column(col)
	s := vecSlot{col: col, off: int64(b.offs[col]), width: c.Width, lane: -1}
	switch c.Type {
	case geometry.Int64:
		s.kind = slotI64
		s.lane = p.nI64
		p.nI64++
	case geometry.Int32, geometry.Date:
		s.kind = slotI32
		s.lane = p.nI64
		p.nI64++
	case geometry.Float64:
		s.kind = slotF64
		s.lane = p.nF64
		p.nF64++
	case geometry.Char:
		s.kind = slotChar
	}
	b.slotOf[col] = len(p.slots) + 1
	p.slots = append(p.slots, s)
	return len(p.slots) - 1
}

// touch records col's first touch in the row.
func (b *progBuilder) touch(col int) {
	if !b.touched[col] {
		b.touched[col] = true
		b.seq = append(b.seq, int32(b.slot(col)))
	}
}

// outcome closes one outcome over the columns touched so far: evals
// predicate evaluations, one fetch per touched column, plus charge.
func (b *progBuilder) outcome(evals int, charge uint64) {
	p := b.p
	ls := append([]int32(nil), b.seq...)
	offs := make([]int64, len(ls))
	for i, si := range ls {
		offs[i] = p.slots[si].off
	}
	p.loadSlots = append(p.loadSlots, ls)
	p.loadOffs = append(p.loadOffs, offs)
	p.charge = append(p.charge, uint64(evals)*b.ch.predEval+uint64(len(ls))*b.ch.fetch+charge)
}

// compileScanProg builds the batch plan for a query over sch, with sel as
// the predicates the CPU evaluates (empty when pushed down) and offs
// holding each column's byte offset within the scan's addressing unit.
// consumeVisit, when non-nil, overrides the pass outcome's column visit
// order (the COL engine explicitly touches every consumed column before
// consuming; ROW and RM touch lazily in consumption order). ok is false
// when the query shape must stay on the scalar path (a scalar expression
// form the lane evaluator does not know).
func compileScanProg(q Query, sch *geometry.Schema, sel expr.Conjunction, consumeVisit []int, offs []int, ch vecCharges) (*scanProg, bool) {
	b := newProgBuilder(sch, sel, offs, ch)
	p := b.p

	// Pass outcome: consumed columns in scalar visit order, then the
	// consumption charge. An explicit visit list (COL) touches everything
	// up front; the shape loops below then find their columns pre-touched.
	for _, col := range consumeVisit {
		b.touch(col)
	}
	var consumeCharge uint64
	if len(q.Aggregates) == 0 {
		for _, col := range q.Projection {
			b.touch(col)
			p.projCols = append(p.projCols, col)
			p.projSlot = append(p.projSlot, int32(b.slot(col)))
			consumeCharge += ChecksumCycles
		}
	} else {
		// Grouped rows touch their key columns first, then pay the hash
		// probe, exactly like the scalar consumer.
		for _, col := range q.GroupBy {
			b.touch(col)
			p.groupSlots = append(p.groupSlots, int32(b.slot(col)))
		}
		if len(q.GroupBy) > 0 {
			consumeCharge += HashGroupCycles
		}
		for _, t := range q.Aggregates {
			a := vecAgg{term: t, simple: -1}
			consumeCharge += AggAddCycles
			if t.Arg != nil {
				consumeCharge += uint64(t.Arg.Ops() * ScalarOpCycles)
				for _, col := range t.Arg.Columns() {
					b.touch(col)
				}
				if ref, ok := t.Arg.(expr.ColRef); ok {
					a.simple = b.slot(ref.Col)
				} else {
					d, ok := scalarDepth(t.Arg)
					if !ok {
						return nil, false
					}
					if d > p.evalDepth {
						p.evalDepth = d
					}
				}
			}
			p.aggs = append(p.aggs, a)
		}
	}
	b.outcome(len(sel), consumeCharge)
	return p, true
}

// sinkShape describes a join side's pass outcomes in place of a query's
// consumption shape: pass outcome j first-touches cols[0], …, cols[j] in
// order and charges charge[j] beyond its predicate evaluations and column
// fetches. A build side has one outcome (its projection, HashBuildCycles);
// a probe side has one per stage depth a row can reach.
type sinkShape struct {
	cols   [][]int
	charge []uint64
}

// compileSinkProg builds the batch plan of a join side: the predicate
// outcomes of compileScanProg, then one pass outcome per sinkShape entry.
// The sink consumes the survivors itself, so the program carries no
// consumption shape.
func compileSinkProg(sch *geometry.Schema, sel expr.Conjunction, shape *sinkShape, offs []int, ch vecCharges) *scanProg {
	b := newProgBuilder(sch, sel, offs, ch)
	for j, cols := range shape.cols {
		for _, col := range cols {
			b.touch(col)
		}
		b.outcome(len(sel), shape.charge[j])
	}
	return b.p
}

// scalarDepth returns the scratch-lane depth a scalar tree needs, and
// whether the lane evaluator understands every node.
func scalarDepth(s expr.Scalar) (int, bool) {
	switch t := s.(type) {
	case expr.ColRef, expr.Const:
		return 0, true
	case expr.Binary:
		dl, okL := scalarDepth(t.L)
		dr, okR := scalarDepth(t.R)
		if !okL || !okR {
			return 0, false
		}
		d := dl
		if dr > d {
			d = dr
		}
		return d + 1, true
	default:
		return 0, false
	}
}

// scanScratch is the reusable per-engine batch workspace. Engines own one
// lazily and reuse it across executions, so the steady-state batch loop
// allocates nothing.
type scanScratch struct {
	i64  [][]int64
	f64  [][]float64
	tmp  [][]float64 // derived-scalar evaluation lanes, one per tree level
	out  []float64   // compacted derived-scalar results
	pred []int64     // integer decode buffer for COL bitmap passes
	sel  []int32
	fail []int16
	vis  []bool
	iota []int32 // identity selection for compacted kernels

	hash []uint64      // group-key hashes of the batch's survivors
	gids []int32       // group ids of the batch's survivors
	keys []groupKeySrc // group-key columns of the current batch
}

// ensure grows the scratch to fit prog.
func (s *scanScratch) ensure(p *scanProg) {
	for len(s.i64) < p.nI64 {
		s.i64 = append(s.i64, make([]int64, vecBatchRows))
	}
	for len(s.f64) < p.nF64 {
		s.f64 = append(s.f64, make([]float64, vecBatchRows))
	}
	for len(s.tmp) < p.evalDepth {
		s.tmp = append(s.tmp, make([]float64, vecBatchRows))
	}
	if s.out == nil {
		s.out = make([]float64, vecBatchRows)
		s.pred = make([]int64, vecBatchRows)
		s.sel = make([]int32, 0, vecBatchRows)
		s.fail = make([]int16, vecBatchRows)
		s.vis = make([]bool, vecBatchRows)
		s.iota = make([]int32, vecBatchRows)
		for i := range s.iota {
			s.iota[i] = int32(i)
		}
	}
	if p.groupSlots != nil && s.hash == nil {
		s.hash = make([]uint64, vecBatchRows)
		s.gids = make([]int32, vecBatchRows)
	}
}

// lane returns the typed lane backing slot si, valid for the current batch.
func (s *scanScratch) laneI64(p *scanProg, si int32) []int64 { return s.i64[p.slots[si].lane] }
func (s *scanScratch) laneF64(p *scanProg, si int32) []float64 {
	return s.f64[p.slots[si].lane]
}

// decodeSlots bulk-decodes every numeric slot's lane for a batch of n rows
// whose addressing unit starts at byte base of src and advances by stride.
func (s *scanScratch) decodeSlots(p *scanProg, src []byte, base, stride, n int) {
	for i := range p.slots {
		sl := &p.slots[i]
		off := base + int(sl.off)
		switch sl.kind {
		case slotI64:
			vec.DecodeI64(s.i64[sl.lane][:n], src, off, stride, n)
		case slotI32:
			vec.DecodeI32(s.i64[sl.lane][:n], src, off, stride, n)
		case slotF64:
			vec.DecodeF64(s.f64[sl.lane][:n], src, off, stride, n)
		}
	}
}

// refine runs the predicate kernels over a decoded batch, narrowing sel and
// recording each dropped row's failing depth. CHAR predicates read src in
// place at (base + slot.off + row*stride).
func (s *scanScratch) refine(p *scanProg, src []byte, base, stride, n int, sel []int32) []int32 {
	fail := s.fail[:n]
	for i := range fail {
		fail[i] = -1
	}
	for k := range p.preds {
		pr := &p.preds[k]
		sl := &p.slots[pr.slot]
		switch sl.kind {
		case slotI64, slotI32:
			sel = vec.FilterI64(s.i64[sl.lane][:n], pr.op, pr.opI, sel, fail, int16(k))
		case slotF64:
			sel = vec.FilterF64(s.f64[sl.lane][:n], pr.op, pr.opF, sel, fail, int16(k))
		case slotChar:
			sel = vec.FilterChar(src, base+int(sl.off), stride, sl.width, pr.op, pr.opB, sel, fail, int16(k))
		}
	}
	return sel
}

// consume folds the surviving selection of one decoded batch into the
// query's output: projection checksums, aggregate states, or per-group
// states. CHAR columns are hashed and grouped in place from src.
func (s *scanScratch) consume(p *scanProg, src []byte, base, stride int, sel []int32, checksum *uint64, aggs []vec.AggState, groups *groupTable) {
	if len(sel) == 0 {
		return
	}
	if p.aggs == nil {
		for i, col := range p.projCols {
			si := p.projSlot[i]
			sl := &p.slots[si]
			switch sl.kind {
			case slotI64, slotI32:
				*checksum += vec.ChecksumI64(col, s.laneI64(p, si), sel)
			case slotF64:
				*checksum += vec.ChecksumF64(col, s.laneF64(p, si), sel)
			case slotChar:
				*checksum += vec.ChecksumChar(col, src, base+int(sl.off), stride, sl.width, sel)
			}
		}
		return
	}
	var gids []int32
	if groups != nil {
		gids = s.group(p, groups, sel, sel, func(sl *vecSlot) ([]byte, int, int) {
			return src, base + int(sl.off), stride
		})
	}
	s.foldAggs(p, sel, aggs, groups, gids, func(si int32, dst []float64, sel []int32) {
		sl := &p.slots[si]
		if sl.kind == slotF64 {
			vec.CompactLaneF64(dst, s.laneF64(p, si), sel)
		} else {
			vec.CompactLaneI64(dst, s.laneI64(p, si), sel)
		}
	})
}

// group maps the batch's survivors to group ids and counts them: numeric
// keys come from the decoded lanes at sel, CHAR keys in place at rows, in
// the layout charAt gives for the slot (buffer, byte offset of row 0,
// stride).
func (s *scanScratch) group(p *scanProg, groups *groupTable, sel, rows []int32, charAt func(sl *vecSlot) ([]byte, int, int)) []int32 {
	keys := s.keys[:0]
	for _, si := range p.groupSlots {
		sl := &p.slots[si]
		var k groupKeySrc
		switch sl.kind {
		case slotF64:
			k.f64 = s.f64[sl.lane]
		case slotChar:
			k.src, k.off, k.stride = charAt(sl)
		default:
			k.i64 = s.i64[sl.lane]
		}
		keys = append(keys, k)
	}
	s.keys = keys
	gids := s.gids[:len(sel)]
	groups.lookupBatch(keys, sel, rows, s.hash, gids)
	for _, gid := range gids {
		groups.counts[gid]++
	}
	return gids
}

// foldAggs folds sel into the aggregate states: aggs when ungrouped, else
// row j's group gids[j] of groups. compact widens one slot's selected lanes
// into a compacted float vector (layout-specific for COL).
func (s *scanScratch) foldAggs(p *scanProg, sel []int32, aggs []vec.AggState, groups *groupTable, gids []int32, compact func(si int32, dst []float64, sel []int32)) {
	for ti := range p.aggs {
		a := &p.aggs[ti]
		var out []float64
		if a.term.Arg != nil && a.simple < 0 {
			out = s.out[:len(sel)]
			s.evalScalar(p, a.term.Arg, out, sel, 0, compact)
		}
		if groups != nil {
			states, n := groups.states, groups.naggs
			switch {
			case a.term.Arg == nil:
				vec.GroupAddCount(states, n, ti, gids)
			case out != nil:
				vec.GroupAddVals(states, n, ti, gids, out)
			case p.slots[a.simple].kind == slotF64:
				vec.GroupAddF64(states, n, ti, gids, s.laneF64(p, int32(a.simple)), sel)
			default:
				vec.GroupAddI64(states, n, ti, gids, s.laneI64(p, int32(a.simple)), sel)
			}
			continue
		}
		st := &aggs[ti]
		switch {
		case a.term.Arg == nil:
			st.AddCount(int64(len(sel)))
		case out != nil:
			vec.AddVals(st, out)
		case p.slots[a.simple].kind == slotF64:
			vec.AddF64(st, s.laneF64(p, int32(a.simple)), sel)
		default:
			vec.AddI64(st, s.laneI64(p, int32(a.simple)), sel)
		}
	}
}

// evalScalar evaluates a derived scalar tree over the selection into dst,
// compacted. Per-row operation order matches Scalar.EvalF (left subtree,
// right subtree, combine) so float results are bit-identical.
func (s *scanScratch) evalScalar(p *scanProg, sc expr.Scalar, dst []float64, sel []int32, level int, compact func(si int32, dst []float64, sel []int32)) {
	switch t := sc.(type) {
	case expr.ColRef:
		si := p.slotIndex(t.Col)
		compact(si, dst, sel)
	case expr.Const:
		vec.FillF64(dst, t.V)
	case expr.Binary:
		s.evalScalar(p, t.L, dst, sel, level, compact)
		tmp := s.tmp[level][:len(dst)]
		s.evalScalar(p, t.R, tmp, sel, level+1, compact)
		switch t.Op {
		case expr.Add:
			vec.AddLanes(dst, tmp)
		case expr.Sub:
			vec.SubLanes(dst, tmp)
		case expr.Mul:
			vec.MulLanes(dst, tmp)
		}
	}
}

// slotIndex resolves a column to its slot; compile guarantees presence.
func (p *scanProg) slotIndex(col int) int32 {
	for i := range p.slots {
		if p.slots[i].col == col {
			return int32(i)
		}
	}
	panic("engine: vectorized scan references an uncompiled column")
}

// assembleVecResult builds the Result the scalar consumer would have built.
func assembleVecResult(name string, q Query, aggs []vec.AggState, groups *groupTable, scanned, passed int64, checksum uint64) *Result {
	r := &Result{Engine: name, RowsScanned: scanned, RowsPassed: passed, Checksum: checksum}
	if aggs != nil {
		r.Aggs = aggResults(q.Aggregates, aggs)
	}
	if groups != nil {
		r.Groups = groups.rows(q.Aggregates)
	}
	return r
}
