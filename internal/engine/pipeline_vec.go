package engine

import (
	"math"

	"rfabric/internal/colstore"
	"rfabric/internal/geometry"
	"rfabric/internal/vec"
)

// The batch executor: the vectorized twin of runScalar in pipeline.go.
// It processes vecBatchRows rows per iteration in four stages — visibility,
// bulk decode, selection refinement, charge replay — then consumes the
// survivors through typed kernels, or hands them to a join side's sink.
// The charge-replay stage issues the exact Hier.Load sequence and compute
// charges of the scalar interpreter (the per-row short-circuit outcome
// decided by the recorded fail depth selects a precompiled load program),
// so modeled cycles, Breakdown, spans, and timelines are byte-identical;
// only wall-clock time and allocations change. Like the scalar pipeline it is written once and parameterized by
// the opened scan: ROW feeds it one strided segment (with MVCC replay and
// per-row ticks), RM feeds it fabric chunks with pipeline accounting. COL's
// decomposed layout has its own driver, runColVec, below.

// runVec drives the compiled batch program over strided segments.
func (s *scan) runVec(q Query) (*Result, error) {
	pr := s.begin()
	prog := s.prog
	sc := s.scratch
	sc.ensure(prog)

	snapped := s.mvccTbl != nil && q.Snapshot != nil
	var snapTS uint64
	if snapped {
		snapTS = *q.Snapshot
	}

	aggs, groups := newVecFold(q, s.sch)
	var checksum uint64
	var passed, scanned int64
	var pipeline, producer uint64
	last := len(prog.preds)

	next := s.segs(pr)
	for {
		hierBefore := s.sys.Hier.Stats().Cycles
		computeBefore := pr.compute

		seg, ok := next()
		if !ok {
			break
		}
		scanned += seg.sourceRows

		for sub := 0; sub < seg.rows; sub += vecBatchRows {
			n := seg.rows - sub
			if n > vecBatchRows {
				n = vecBatchRows
			}
			vis := sc.vis[:n]
			if snapped {
				vec.VisibleMask(vis, seg.data, seg.stride, sub, snapTS)
			}
			byteBase := sub*seg.stride + seg.payloadOff
			sc.decodeSlots(prog, seg.data, byteBase, seg.stride, n)
			sel := sc.sel[:0]
			if snapped {
				for i := 0; i < n; i++ {
					if vis[i] {
						sel = append(sel, int32(i))
					}
				}
			} else {
				for i := 0; i < n; i++ {
					sel = append(sel, int32(i))
				}
			}
			sel = sc.refine(prog, seg.data, byteBase, seg.stride, n, sel)

			// A sink takes the survivors before replay, since a join side's
			// pass outcome and charge per row depend on what it matched.
			var outcome []int16
			var extra []uint64
			if s.vsink != nil {
				outcome, extra = s.vsink(vecBatch{prog: prog, sc: sc, src: seg.data, base: byteBase, stride: seg.stride, sel: sel})
			}

			// Charge replay, row-major like the scalar loop: tick, iterator
			// overhead, MVCC header touch, then the outcome's load program.
			fail := sc.fail[:n]
			rowAddr := seg.baseAddr + int64(sub)*int64(seg.stride)
			for i := 0; i < n; i++ {
				if s.tickPerRow && pr.tk.tl != nil {
					pr.tk.advance(s.sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
				}
				pr.compute += s.perRow
				if s.mvccTbl != nil {
					s.sys.Hier.Load(rowAddr)
					if snapped {
						pr.compute += TSCheckSoftwareCycles
						if !vis[i] {
							rowAddr += int64(seg.stride)
							continue
						}
					}
				}
				idx := last
				if fail[i] >= 0 {
					idx = int(fail[i])
				} else if outcome != nil {
					idx += int(outcome[i])
					pr.compute += extra[i]
				}
				payloadAddr := rowAddr + int64(seg.payloadOff)
				for _, off := range prog.loadOffs[idx] {
					s.sys.Hier.Load(payloadAddr + off)
				}
				pr.compute += prog.charge[idx]
				rowAddr += int64(seg.stride)
			}

			passed += int64(len(sel))
			if s.vsink == nil {
				sc.consume(prog, seg.data, byteBase, seg.stride, sel, &checksum, aggs, groups)
			}
		}

		if s.pipelined {
			consumer := (s.sys.Hier.Stats().Cycles - hierBefore) + (pr.compute - computeBefore)
			producer += seg.producer
			if seg.producer > consumer {
				pipeline += seg.producer
			} else {
				pipeline += consumer
			}
			pr.tk.advance(pipeline)
		}
	}

	res := assembleVecResult(s.name, q, aggs, groups, scanned, passed, checksum)
	return s.finishRun(pr, res, pipeline, producer)
}

// newVecFold allocates one execution's fold target: ungrouped aggregate
// states, or a fresh group table (never kept past the execution).
func newVecFold(q Query, sch *geometry.Schema) ([]vec.AggState, *groupTable) {
	if groups := newQueryGroups(q, sch); groups != nil {
		return nil, groups
	}
	if len(q.Aggregates) > 0 {
		return make([]vec.AggState, len(q.Aggregates)), nil
	}
	return nil, nil
}

// colVecLayout is the decomposed-layout batch driver's view of the column
// store: dense per-column arrays addressed by (column, row) rather than a
// strided row region, so selection runs as bitmap passes and reconstruction
// as gathers.
type colVecLayout struct {
	store *colstore.Store
}

// runColVec is the decomposed layout's batch scan: bitmap selection passes
// over dense columns, then batched tuple reconstruction over the qualifying
// row ids.
func (s *scan) runColVec(q Query) (*Result, error) {
	pr := s.begin()
	prog := s.prog
	sc := s.scratch
	sc.ensure(prog)
	store := s.colVec.store
	sch := s.sch
	rows := store.NumRows()

	var bitmap []bool
	var bitmapAddr int64
	if len(q.Selection) > 0 {
		bitmapAddr = s.sys.Arena.Alloc(int64(rows))
		bitmap = make([]bool, rows)
	}
	for pi, p := range q.Selection {
		cdef := sch.Column(p.Col)
		w := cdef.Width
		data := store.ColumnData(p.Col)
		valBase := store.ColumnAddr(p.Col)
		refinePass := pi > 0
		var opB []byte
		if cdef.Type == geometry.Char {
			opB = vec.TrimPad(p.Operand.Bytes)
		}
		for base := 0; base < rows; base += vecBatchRows {
			n := rows - base
			if n > vecBatchRows {
				n = vecBatchRows
			}
			// Exact scalar pass order per row: tick, value load, bitmap
			// load (later passes), charge.
			addr := valBase + int64(base*w)
			for i := 0; i < n; i++ {
				if pr.tk.tl != nil {
					pr.tk.advance(s.sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
				}
				s.sys.Hier.Load(addr)
				if refinePass {
					s.sys.Hier.Load(bitmapAddr + int64(base+i))
				}
				pr.compute += VectorOpCycles + MaterializeCycles
				addr += int64(w)
			}
			dst := bitmap[base : base+n]
			switch cdef.Type {
			case geometry.Int64:
				vec.DecodeI64(sc.pred[:n], data, base*w, w, n)
				vec.CmpBitmapI64(dst, sc.pred[:n], p.Op, p.Operand.Int, refinePass)
			case geometry.Int32, geometry.Date:
				vec.DecodeI32(sc.pred[:n], data, base*w, w, n)
				vec.CmpBitmapI64(dst, sc.pred[:n], p.Op, p.Operand.Int, refinePass)
			case geometry.Float64:
				vec.DecodeF64(sc.out[:n], data, base*w, w, n)
				vec.CmpBitmapF64(dst, sc.out[:n], p.Op, p.Operand.Float, refinePass)
			case geometry.Char:
				vec.CmpBitmapChar(dst, data, w, base, p.Op, opB, refinePass)
			}
		}
	}

	var sel32 []int32
	if bitmap != nil {
		sel32 = make([]int32, 0, rows)
		for r, ok := range bitmap {
			if ok {
				sel32 = append(sel32, int32(r))
			}
		}
		pr.compute += uint64(len(sel32) * MaterializeCycles)
	}

	// Reconstruction: the pass program (index len(preds)==0 here — compile
	// saw no CPU predicates) is the consumed columns in declared order.
	loads := prog.loadSlots[len(prog.preds)]
	passCharge := prog.charge[len(prog.preds)]
	aggs, groups := newVecFold(q, sch)
	var checksum uint64
	var passed int64

	process := func(group []int32) {
		m := len(group)
		for _, r := range group {
			if pr.tk.tl != nil {
				pr.tk.advance(s.sys.Hier.Stats().Cycles - pr.hierStart.Cycles + pr.compute)
			}
			for _, si := range loads {
				sl := &prog.slots[si]
				s.sys.Hier.Load(store.ValueAddr(sl.col, int(r)))
			}
			pr.compute += passCharge
		}
		for _, si := range loads {
			sl := &prog.slots[si]
			cdata := store.ColumnData(sl.col)
			switch sl.kind {
			case slotI64:
				vec.GatherI64(sc.i64[sl.lane][:m], cdata, sl.width, group)
			case slotI32:
				vec.GatherI32(sc.i64[sl.lane][:m], cdata, sl.width, group)
			case slotF64:
				vec.GatherF64(sc.f64[sl.lane][:m], cdata, sl.width, group)
			}
		}
		idsel := sc.iota[:m]
		if prog.aggs == nil {
			for i, col := range prog.projCols {
				si := prog.projSlot[i]
				sl := &prog.slots[si]
				switch sl.kind {
				case slotI64, slotI32:
					checksum += vec.ChecksumI64(col, sc.i64[sl.lane], idsel)
				case slotF64:
					checksum += vec.ChecksumF64(col, sc.f64[sl.lane], idsel)
				case slotChar:
					checksum += vec.ChecksumCharGather(col, store.ColumnData(col), sl.width, group)
				}
			}
		} else {
			var gids []int32
			if groups != nil {
				// Numeric keys sit in the compacted lanes; CHAR keys are
				// read in place from their dense column at the row ids.
				gids = sc.group(prog, groups, idsel, group, func(sl *vecSlot) ([]byte, int, int) {
					return store.ColumnData(sl.col), 0, sl.width
				})
			}
			sc.foldAggs(prog, idsel, aggs, groups, gids, func(si int32, dst []float64, s2 []int32) {
				sl := &prog.slots[si]
				if sl.kind == slotF64 {
					vec.CompactLaneF64(dst, sc.f64[sl.lane], s2)
				} else {
					vec.CompactLaneI64(dst, sc.i64[sl.lane], s2)
				}
			})
		}
		passed += int64(m)
	}

	if bitmap == nil {
		for base := 0; base < rows; base += vecBatchRows {
			n := rows - base
			if n > vecBatchRows {
				n = vecBatchRows
			}
			group := sc.sel[:0]
			for i := 0; i < n; i++ {
				group = append(group, int32(base+i))
			}
			process(group)
		}
	} else {
		for s0 := 0; s0 < len(sel32); s0 += vecBatchRows {
			s1 := s0 + vecBatchRows
			if s1 > len(sel32) {
				s1 = len(sel32)
			}
			process(sel32[s0:s1])
		}
	}

	res := assembleVecResult(s.name, q, aggs, groups, int64(rows), passed, checksum)
	return s.finishRun(pr, res, 0, 0)
}

// vecRowLimit guards the int32 selection representation; tables past it use
// the scalar paths (none of the reproduction's workloads come close).
const vecRowLimit = math.MaxInt32
