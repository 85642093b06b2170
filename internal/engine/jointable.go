package engine

import (
	"fmt"
	"math"

	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// The join's hash tables and its two sink forms. A build side streams into
// a joinTable — on the batch pipeline column-at-a-time from decoded lanes,
// on the scalar pipeline value-at-a-time — and a probe side walks the
// tables either per row over boxed values or per batch over decoded lanes.
// Both forms charge the same modeled work in the same order, so a join's
// Breakdown, spans and timeline do not depend on which form ran.

// joinKey is a canonical join key, as joinKeyTo defines equality: integral
// keys by value across INT, BIGINT and DATE widths and DOUBLE keys by bits
// with -0.0 folded onto +0.0 (both in w), CHAR keys by their NUL-trimmed
// bytes b; h is the key's hash. ok is false for NaN, which never joins.
type joinKey struct {
	h, w uint64
	b    []byte
	ok   bool
}

func wordJoinKey(w uint64) joinKey {
	return joinKey{h: vec.HashKeyWord(vec.KeySeed, w), w: w, ok: true}
}

func floatJoinKey(f float64) joinKey {
	if f != f {
		return joinKey{}
	}
	if f == 0 {
		f = 0 // collapse -0 onto +0
	}
	return wordJoinKey(math.Float64bits(f))
}

func charJoinKey(b []byte) joinKey {
	b = vec.TrimPad(b)
	return joinKey{h: vec.HashKeyChar(vec.KeySeed, b), b: b, ok: true}
}

func valueJoinKey(v table.Value) joinKey {
	switch v.Type {
	case geometry.Float64:
		return floatJoinKey(v.Float)
	case geometry.Char:
		return charJoinKey(v.Bytes)
	default:
		return wordJoinKey(uint64(v.Int))
	}
}

// joinTable is one build stage's hash table. index is a group table over
// the canonical build key — one key column, no aggregates — so its group
// ids are the distinct build keys; head/tail/next chain each key's build
// rows in insertion (row) order; cols hold the side projection's values in
// typed columnar buffers indexed by build row. A table lives for one
// execution and is read-only once built, so PAR morsels probe it
// concurrently.
type joinTable struct {
	proj   []int // the side projection: cols[i] holds build column proj[i]
	keyCol int   // index into cols of the build key
	index  *groupTable
	head   []int32 // by key id: its first build row
	tail   []int32 // by key id: its last build row
	next   []int32 // by build row: its key's next build row, -1 at the end
	cols   []buildCol
	slots  []int32 // batch form: each projected column's program slot
}

// buildCol is one projected build column: integral values (sign-extended
// to int64), DOUBLE values, or fixed-width CHAR fields.
type buildCol struct {
	typ   geometry.ColumnType
	width int
	num   []int64
	f64   []float64
	char  []byte
}

// newJoinTable prepares stage k's empty table.
func newJoinTable(p *JoinPlan, k int) (*joinTable, error) {
	stage := &p.Stages[k]
	t := &joinTable{proj: stage.Side.Query.Projection, keyCol: -1}
	t.cols = make([]buildCol, len(t.proj))
	for i, c := range t.proj {
		col := p.Schema.Column(p.Offsets[k+1] + c)
		t.cols[i] = buildCol{typ: col.Type, width: col.Width}
		if c == stage.BuildKey {
			t.keyCol = i
		}
	}
	if t.keyCol < 0 {
		return nil, fmt.Errorf("engine: stage %d build key %d missing from side projection", k, stage.BuildKey)
	}
	t.index = newGroupTable([]geometry.Column{p.Schema.Column(p.Offsets[k+1] + stage.BuildKey)}, 0)
	return t, nil
}

// link chains build row r, whose columns are already appended, under its
// key. A NaN-keyed row stays in the buffers but is never linked, so it
// never matches.
func (t *joinTable) link(r int32) {
	t.next = append(t.next, -1)
	k := t.cols[t.keyCol].key(r)
	if !k.ok {
		return
	}
	gid := t.index.keyGroup(k.h, k.w, k.b, true)
	if int(gid) == len(t.head) {
		t.head = append(t.head, r)
		t.tail = append(t.tail, r)
		return
	}
	t.next[t.tail[gid]] = r
	t.tail[gid] = r
}

// find returns the key id of k, or -1 when no build row carries it.
func (t *joinTable) find(k joinKey) int32 {
	if !k.ok {
		return -1
	}
	return t.index.keyGroup(k.h, k.w, k.b, false)
}

// first returns key id gid's first build row, or -1 for a missing key.
func (t *joinTable) first(gid int32) int32 {
	if gid < 0 {
		return -1
	}
	return t.head[gid]
}

// addRow is the scalar build sink: it fetches the side projection in
// order and links the row, charging HashBuildCycles.
func (t *joinTable) addRow(pr *pipeRun, fetch func(col int) table.Value) {
	pr.compute += HashBuildCycles
	for i, c := range t.proj {
		t.cols[i].appendValue(fetch(c))
	}
	t.link(int32(len(t.next)))
}

// addBatch is the batch build sink: it appends the survivors' projected
// columns from the decoded lanes (CHAR in place) and links them in row
// order. Its one pass outcome carries every charge.
func (t *joinTable) addBatch(b vecBatch) ([]int16, []uint64) {
	if t.slots == nil {
		for _, c := range t.proj {
			t.slots = append(t.slots, b.prog.slotIndex(c))
		}
	}
	for i := range t.cols {
		c := &t.cols[i]
		sl := &b.prog.slots[t.slots[i]]
		switch sl.kind {
		case slotF64:
			lane := b.sc.f64[sl.lane]
			for _, r := range b.sel {
				c.f64 = append(c.f64, lane[r])
			}
		case slotChar:
			off := b.base + int(sl.off)
			for _, r := range b.sel {
				o := off + int(r)*b.stride
				c.char = append(c.char, b.src[o:o+sl.width]...)
			}
		default:
			lane := b.sc.i64[sl.lane]
			for _, r := range b.sel {
				c.num = append(c.num, lane[r])
			}
		}
	}
	for range b.sel {
		t.link(int32(len(t.next)))
	}
	return nil, nil
}

// bloom builds the fabric semi-join filter over the table's distinct keys,
// each encoded with joinKeyTo — the encoding the fabric applies to probe
// values.
func (t *joinTable) bloom() *fabric.Bloom {
	kc := &t.index.keys[0]
	n := len(t.index.hashes)
	bl := fabric.NewBloom(n)
	var buf []byte
	for gid := int32(0); gid < int32(n); gid++ {
		var v table.Value
		switch kc.typ {
		case geometry.Float64:
			v = table.F64(math.Float64frombits(kc.num[gid]))
		case geometry.Char:
			v = table.Value{Type: geometry.Char, Bytes: kc.char(gid)}
		default:
			v = table.I64(int64(kc.num[gid]))
		}
		buf, _ = joinKeyTo(buf[:0], v)
		bl.Add(buf)
	}
	return bl
}

func (c *buildCol) appendValue(v table.Value) {
	switch c.typ {
	case geometry.Float64:
		c.f64 = append(c.f64, v.Float)
	case geometry.Char:
		c.char = append(c.char, v.Bytes[:c.width]...)
	default:
		c.num = append(c.num, v.Int)
	}
}

// field returns build row r's CHAR field, full width.
func (c *buildCol) field(r int32) []byte {
	o := int(r) * c.width
	return c.char[o : o+c.width : o+c.width]
}

// value boxes build row r's value as the row codec would decode it.
func (c *buildCol) value(r int32) table.Value {
	switch c.typ {
	case geometry.Float64:
		return table.Value{Type: c.typ, Float: c.f64[r]}
	case geometry.Char:
		return table.Value{Type: c.typ, Bytes: c.field(r)}
	default:
		return table.Value{Type: c.typ, Int: c.num[r]}
	}
}

// key returns build row r's canonical join key.
func (c *buildCol) key(r int32) joinKey {
	switch c.typ {
	case geometry.Float64:
		return floatJoinKey(c.f64[r])
	case geometry.Char:
		return charJoinKey(c.field(r))
	default:
		return wordJoinKey(uint64(c.num[r]))
	}
}

// joinProbePlan is a join's compiled probe, shared read-only by every probe
// run (each PAR morsel is one): the built tables, the probe side's pass
// outcomes, and the combined-namespace consumption program the batch form
// folds matches through. A nil cprog (a consumption shape the lane
// evaluator does not know) keeps every probe on the scalar form.
type joinProbePlan struct {
	p      *JoinPlan
	tables []*joinTable

	// shape has one pass outcome per reach depth d = 0..len(Stages): a row
	// that probed stages 0..d-1 and descended into stage d (d = len(Stages):
	// matched fully at least once) first-touched the probe-local keys of
	// stages 0..d, then — on a full match — the probe-local consumed
	// columns in the consumer's order.
	shape sinkShape
	// cprog consumes gathered matches over the combined schema; consume is
	// its charge per full match (the scalar consumer's), and charStride the
	// bytes of a gathered match's CHAR fields, laid out at their slots'
	// offsets.
	cprog      *scanProg
	consume    uint64
	charStride int
}

func newJoinProbePlan(p *JoinPlan, tables []*joinTable) *joinProbePlan {
	jp := &joinProbePlan{p: p, tables: tables}
	charOff := make([]int, p.Schema.NumColumns())
	for _, c := range p.Consume.consumedColumns() {
		if col := p.Schema.Column(c); col.Type == geometry.Char {
			charOff[c] = jp.charStride
			jp.charStride += col.Width
		}
	}
	cprog, ok := compileScanProg(p.Consume, p.Schema, nil, nil, charOff, vecCharges{})
	if !ok {
		return jp
	}
	jp.cprog, jp.consume = cprog, cprog.charge[0]
	for k := range p.Stages {
		var cols []int
		if c := p.Stages[k].ProbeKey; p.colSide[c] == 0 {
			cols = []int{c}
		}
		jp.shape.cols = append(jp.shape.cols, cols)
	}
	var consumed []int
	for _, si := range cprog.loadSlots[0] {
		if c := cprog.slots[si].col; p.colSide[c] == 0 {
			consumed = append(consumed, c)
		}
	}
	jp.shape.cols = append(jp.shape.cols, consumed)
	jp.shape.charge = make([]uint64, len(jp.shape.cols))
	return jp
}

// joinProbe is one probe run: the consumer its matches fold into and the
// walk's state, for whichever form the probe side runs.
type joinProbe struct {
	*joinProbePlan
	cons *consumer
	fold uint64  // the scalar consumer's charge counter
	cur  []int32 // the walk's current build row per stage
	// Scalar form: the row's pipeline window and fetch, and the combined
	// fetch bound once as a method value.
	pr       *pipeRun
	fetch    func(col int) table.Value
	combined func(col int) table.Value

	// Batch form. keySlot[k] is the probe program slot of stage k's key
	// when probe-local (else -1); gatherSlot[si] that of cprog slot si's
	// column when probe-local.
	keySlot    []int32
	gatherSlot []int32
	*probeScratch

	reach, probes, matches int // the current probe row's walk
}

// probeScratch is the batch probe's workspace. A batch's matches buffer in
// scalar order — probe row in mProbe, build row per stage in mBuild — and
// fold in chunks of at most vecBatchRows, gathered into comb's lanes and
// chars. scan serves the probe scan itself where the executor supplies the
// source (PAR morsels), so a worker reuses one workspace across morsels.
type probeScratch struct {
	scan    scanScratch
	comb    scanScratch
	chars   []byte
	gids    []int32
	mProbe  []int32
	mBuild  [][]int32
	outcome []int16
	extra   []uint64
}

// newProbe starts one probe run with a fresh consumer over ps, a fresh
// workspace when nil.
func (pp *joinProbePlan) newProbe(ps *probeScratch) *joinProbe {
	if ps == nil {
		ps = &probeScratch{}
	}
	jp := &joinProbe{joinProbePlan: pp, cur: make([]int32, len(pp.tables)), probeScratch: ps}
	jp.cons = newConsumer(pp.p.Consume, pp.p.Schema, &jp.fold)
	jp.combined = jp.combinedValue
	return jp
}

// sink returns the probe side's sinks; the batch form exists when the
// consumption compiled.
func (jp *joinProbe) sink() sideSink {
	sk := sideSink{row: jp.probeRow}
	if jp.cprog != nil {
		sk.shape, sk.batch = &jp.shape, jp.probeBatch
	}
	return sk
}

// probeRow is the scalar probe sink: for the row it walks the stages in
// order, looking each stage's table up by the combined row's key value,
// and folds every full match into the consumer. The consumer's folding
// cycles land in the probe's measured window.
func (jp *joinProbe) probeRow(pr *pipeRun, fetch func(col int) table.Value) {
	jp.pr, jp.fetch = pr, fetch
	jp.descendRow(0)
}

func (jp *joinProbe) descendRow(k int) {
	if k == len(jp.tables) {
		before := jp.fold
		jp.cons.consumeRow(jp.combined)
		jp.pr.compute += jp.fold - before
		return
	}
	jp.pr.compute += HashProbeCycles
	t := jp.tables[k]
	for e := t.first(t.find(valueJoinKey(jp.combined(jp.p.Stages[k].ProbeKey)))); e >= 0; e = t.next[e] {
		jp.cur[k] = e
		jp.descendRow(k + 1)
	}
}

// combinedValue fetches a combined column: from the probe row, or from the
// current build row of its stage.
func (jp *joinProbe) combinedValue(col int) table.Value {
	s := jp.p.colSide[col]
	if s == 0 {
		return jp.fetch(jp.p.colSlot[col])
	}
	return jp.tables[s-1].cols[jp.p.colSlot[col]].value(jp.cur[s-1])
}

// bind resolves the probe-local columns to the probe program's slots and
// sizes the batch workspace (one plan's runs share its sizes), on a run's
// first batch.
func (jp *joinProbe) bind(prog *scanProg) {
	p := jp.p
	jp.keySlot = make([]int32, len(p.Stages))
	for k := range p.Stages {
		jp.keySlot[k] = -1
		if c := p.Stages[k].ProbeKey; p.colSide[c] == 0 {
			jp.keySlot[k] = prog.slotIndex(c)
		}
	}
	jp.gatherSlot = make([]int32, len(jp.cprog.slots))
	for si := range jp.cprog.slots {
		jp.gatherSlot[si] = -1
		if c := jp.cprog.slots[si].col; p.colSide[c] == 0 {
			jp.gatherSlot[si] = prog.slotIndex(c)
		}
	}
	jp.comb.ensure(jp.cprog)
	if jp.gids == nil {
		jp.chars = make([]byte, vecBatchRows*jp.charStride)
		jp.gids = make([]int32, vecBatchRows)
		jp.mProbe = make([]int32, 0, vecBatchRows)
		jp.mBuild = make([][]int32, len(p.Stages))
		for k := range jp.mBuild {
			jp.mBuild[k] = make([]int32, 0, vecBatchRows)
		}
		jp.outcome = make([]int16, vecBatchRows)
		jp.extra = make([]uint64, vecBatchRows)
	}
}

// probeBatch is the batch probe sink. It hashes the survivors' stage-0 key
// lane and probes the table, then walks the stages per survivor in scalar
// order, buffering every full match. Each survivor's pass outcome is the
// deepest stage it reached; its variable charge is HashProbeCycles per
// probe plus the consumer's charge per full match — what the scalar walk
// adds for the same row.
func (jp *joinProbe) probeBatch(b vecBatch) ([]int16, []uint64) {
	if jp.keySlot == nil {
		jp.bind(b.prog)
	}
	t0 := jp.tables[0]
	gids := jp.gids[:len(b.sel)]
	for j, r := range b.sel {
		gids[j] = t0.find(laneKey(&b, jp.keySlot[0], r))
	}
	for j, r := range b.sel {
		jp.reach, jp.probes, jp.matches = 0, 1, 0
		for e := t0.first(gids[j]); e >= 0; e = t0.next[e] {
			jp.cur[0] = e
			jp.descend(&b, 1, r)
		}
		jp.outcome[r] = int16(jp.reach)
		jp.extra[r] = uint64(jp.probes)*HashProbeCycles + uint64(jp.matches)*jp.consume
		jp.cons.rowsPassed += int64(jp.matches)
	}
	jp.flush(&b)
	return jp.outcome, jp.extra
}

// descend walks stage k (k >= 1) for probe row r with the build rows of
// stages 0..k-1 fixed in cur.
func (jp *joinProbe) descend(b *vecBatch, k int, r int32) {
	jp.reach = max(jp.reach, k)
	if k == len(jp.tables) {
		jp.matches++
		jp.mProbe = append(jp.mProbe, r)
		for s, e := range jp.cur {
			jp.mBuild[s] = append(jp.mBuild[s], e)
		}
		if len(jp.mProbe) == vecBatchRows {
			jp.flush(b)
		}
		return
	}
	jp.probes++
	var key joinKey
	if si := jp.keySlot[k]; si >= 0 {
		key = laneKey(b, si, r)
	} else {
		c := jp.p.Stages[k].ProbeKey
		s := jp.p.colSide[c] - 1
		key = jp.tables[s].cols[jp.p.colSlot[c]].key(jp.cur[s])
	}
	t := jp.tables[k]
	for e := t.first(t.find(key)); e >= 0; e = t.next[e] {
		jp.cur[k] = e
		jp.descend(b, k+1, r)
	}
}

// laneKey returns the canonical key of batch row r in probe slot si.
func laneKey(b *vecBatch, si int32, r int32) joinKey {
	sl := &b.prog.slots[si]
	switch sl.kind {
	case slotF64:
		return floatJoinKey(b.sc.f64[sl.lane][r])
	case slotChar:
		o := b.base + int(sl.off) + int(r)*b.stride
		return charJoinKey(b.src[o : o+sl.width])
	default:
		return wordJoinKey(uint64(b.sc.i64[sl.lane][r]))
	}
}

// flush gathers the buffered matches into the combined lanes — probe
// columns from the batch, build columns from the stages' buffers — and
// folds them through the consumption kernels, in match order.
func (jp *joinProbe) flush(b *vecBatch) {
	m := len(jp.mProbe)
	if m == 0 {
		return
	}
	cp, csc, cs := jp.cprog, &jp.comb, jp.charStride
	for si := range cp.slots {
		sl := &cp.slots[si]
		if ps := jp.gatherSlot[si]; ps >= 0 {
			psl := &b.prog.slots[ps]
			switch sl.kind {
			case slotF64:
				dst, src := csc.f64[sl.lane][:m], b.sc.f64[psl.lane]
				for j, r := range jp.mProbe {
					dst[j] = src[r]
				}
			case slotChar:
				off := b.base + int(psl.off)
				for j, r := range jp.mProbe {
					o := off + int(r)*b.stride
					copy(jp.chars[j*cs+int(sl.off):], b.src[o:o+sl.width])
				}
			default:
				dst, src := csc.i64[sl.lane][:m], b.sc.i64[psl.lane]
				for j, r := range jp.mProbe {
					dst[j] = src[r]
				}
			}
			continue
		}
		s := jp.p.colSide[sl.col] - 1
		col := &jp.tables[s].cols[jp.p.colSlot[sl.col]]
		rows := jp.mBuild[s]
		switch sl.kind {
		case slotF64:
			dst := csc.f64[sl.lane][:m]
			for j, e := range rows {
				dst[j] = col.f64[e]
			}
		case slotChar:
			for j, e := range rows {
				copy(jp.chars[j*cs+int(sl.off):], col.field(e))
			}
		default:
			dst := csc.i64[sl.lane][:m]
			for j, e := range rows {
				dst[j] = col.num[e]
			}
		}
	}
	c := jp.cons
	csc.consume(cp, jp.chars, 0, cs, csc.iota[:m], &c.checksum, c.aggs, c.groups)
	jp.mProbe = jp.mProbe[:0]
	for k := range jp.mBuild {
		jp.mBuild[k] = jp.mBuild[k][:0]
	}
}
