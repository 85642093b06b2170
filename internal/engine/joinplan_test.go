package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// joinPlanFixture holds two correlated tables on one System: a fact table
// (fk BIGINT, val DOUBLE, tag CHAR(4)) and a dimension (id BIGINT, w INT).
type joinPlanFixture struct {
	sys  *System
	fact *table.Table
	dim  *table.Table
}

func factSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "fk", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "val", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "tag", Type: geometry.Char, Width: 4},
	)
}

func dimSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "w", Type: geometry.Int32, Width: 4},
	)
}

// buildJoinTable materializes rows into a relocated table on sys's arena.
func buildJoinTable(t *testing.T, sys *System, name string, sch *geometry.Schema, rows [][]table.Value, mvcc bool) *table.Table {
	t.Helper()
	var opts []table.Option
	if mvcc {
		opts = append(opts, table.WithMVCC())
	}
	tbl := table.MustNew(name, sch, opts...)
	for _, vals := range rows {
		tbl.MustAppend(1, vals...)
	}
	base := sys.Arena.Alloc(int64(tbl.SizeBytes()))
	return relocate(t, tbl, base)
}

func newJoinPlanFixture(t *testing.T, factRows, dimRows int, seed int64) *joinPlanFixture {
	t.Helper()
	sys := MustSystem(DefaultSystemConfig())
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"AA", "BB", "CC"}
	fr := make([][]table.Value, factRows)
	for i := range fr {
		fr[i] = []table.Value{
			table.I64(int64(rng.Intn(dimRows + 2))), // some keys dangle
			table.F64(float64(rng.Intn(1000)) / 10),
			table.Str(tags[rng.Intn(len(tags))]),
		}
	}
	dr := make([][]table.Value, dimRows)
	for i := range dr {
		dr[i] = []table.Value{
			table.I64(int64(i % (dimRows/2 + 1))), // duplicate keys
			table.I32(int32(rng.Intn(5))),
		}
	}
	return &joinPlanFixture{
		sys:  sys,
		fact: buildJoinTable(t, sys, "fact", factSchema(), fr, false),
		dim:  buildJoinTable(t, sys, "dim", dimSchema(), dr, false),
	}
}

func (f *joinPlanFixture) lookup(name string) (*geometry.Schema, error) {
	switch name {
	case "fact":
		return f.fact.Schema(), nil
	default:
		return f.dim.Schema(), nil
	}
}

// materialize reads every row of a table into boxed values.
func materialize(tbl *table.Table) [][]table.Value {
	return materializeAt(tbl, nil)
}

// materializeAt reads the rows of tbl visible at snapshot (every row when
// snapshot is nil) into boxed values.
func materializeAt(tbl *table.Table, snapshot *uint64) [][]table.Value {
	sch := tbl.Schema()
	var out [][]table.Value
	for r := 0; r < tbl.NumRows(); r++ {
		if snapshot != nil && !tbl.VisibleAt(r, *snapshot) {
			continue
		}
		row := make([]table.Value, sch.NumColumns())
		payload := tbl.RowPayload(r)
		for c := range row {
			row[c] = table.DecodeColumn(sch.Column(c), payload[sch.Offset(c):])
		}
		out = append(out, row)
	}
	return out
}

// referenceJoin is the join oracle. It shares no code with the engines: it
// nested-loops the plan over materialized rows under its own reading of SQL
// equality, and folds the matches with its own checksum, its own map of
// groups and its own ordering. Compare its Result with EquivalentTo.
func referenceJoin(p *JoinPlan, probe [][]table.Value, builds ...[][]table.Value) *Result {
	passes := func(row []table.Value, sel expr.Conjunction) bool {
		for _, pr := range sel {
			if !pr.Eval(row[pr.Col]) {
				return false
			}
		}
		return true
	}
	fold := newRefFold(p.Consume, p.Schema)
	var descend func(stage int, combined []table.Value)
	descend = func(stage int, combined []table.Value) {
		if stage == len(p.Stages) {
			fold.add(combined)
			return
		}
		st := p.Stages[stage]
		for _, brow := range builds[stage] {
			if !passes(brow, st.Side.Query.Selection) {
				continue
			}
			if !refSQLEqual(combined[st.ProbeKey], brow[st.BuildKey]) {
				continue
			}
			descend(stage+1, append(combined[:len(combined):len(combined)], brow...))
		}
	}
	for _, prow := range probe {
		if !passes(prow, p.Probe.Query.Selection) {
			continue
		}
		descend(0, prow)
	}
	return fold.result()
}

// refSQLEqual is SQL equality of two join keys of one family: integers by
// value whatever their width, DOUBLE by IEEE comparison (so -0.0 = +0.0 and
// NaN equals nothing), CHAR by content with trailing NUL padding ignored.
func refSQLEqual(a, b table.Value) bool {
	switch a.Type {
	case geometry.Float64:
		return a.Float == b.Float
	case geometry.Char:
		return string(refTrim(a.Bytes)) == string(refTrim(b.Bytes))
	default:
		return a.Int == b.Int
	}
}

func refTrim(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return b
}

// refHash is the documented projection checksum of one value: FNV-1a over
// the column index and then the value — integers by their 64-bit payload,
// DOUBLE by its bits, CHAR by its bytes up to the first NUL — each word
// little-endian.
func refHash(col int, v table.Value) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x >> (8 * i) & 0xff
			h *= prime
		}
	}
	word(uint64(col))
	switch v.Type {
	case geometry.Float64:
		word(math.Float64bits(v.Float))
	case geometry.Char:
		for _, c := range v.Bytes {
			if c == 0 {
				break
			}
			h ^= uint64(c)
			h *= prime
		}
	default:
		word(uint64(v.Int))
	}
	return h
}

// refAgg is one aggregate's running state in the oracle.
type refAgg struct {
	n        int64
	sum      float64
	min, max float64
}

func (a *refAgg) add(x float64) {
	if a.n == 0 || x < a.min {
		a.min = x
	}
	if a.n == 0 || x > a.max {
		a.max = x
	}
	a.n++
	a.sum += x
}

func (a *refAgg) value(kind expr.AggKind) table.Value {
	switch kind {
	case expr.Count:
		return table.I64(a.n)
	case expr.Sum:
		return table.F64(a.sum)
	case expr.Avg:
		if a.n == 0 {
			return table.F64(0)
		}
		return table.F64(a.sum / float64(a.n))
	case expr.Min:
		return table.F64(a.min)
	default:
		return table.F64(a.max)
	}
}

type refGroup struct {
	key  []table.Value
	rows int64
	aggs []refAgg
}

// refFold consumes matched combined rows into the query's output shape.
type refFold struct {
	q        Query
	sch      *geometry.Schema
	rows     int64
	checksum uint64
	aggs     []refAgg
	groups   map[string]*refGroup
}

func newRefFold(q Query, sch *geometry.Schema) *refFold {
	return &refFold{q: q, sch: sch, aggs: make([]refAgg, len(q.Aggregates)), groups: map[string]*refGroup{}}
}

func (f *refFold) add(row []table.Value) {
	f.rows++
	if len(f.q.Aggregates) == 0 {
		for _, c := range f.q.Projection {
			f.checksum += refHash(c, row[c])
		}
		return
	}
	aggs := f.aggs
	if len(f.q.GroupBy) > 0 {
		// Groups are identified bitwise: integers by value, DOUBLE by bits,
		// CHAR by content without trailing padding.
		var id []byte
		for _, c := range f.q.GroupBy {
			v := row[c]
			switch v.Type {
			case geometry.Float64:
				id = binary.LittleEndian.AppendUint64(id, math.Float64bits(v.Float))
			case geometry.Char:
				id = append(binary.LittleEndian.AppendUint32(id, uint32(len(refTrim(v.Bytes)))), refTrim(v.Bytes)...)
			default:
				id = binary.LittleEndian.AppendUint64(id, uint64(v.Int))
			}
		}
		g := f.groups[string(id)]
		if g == nil {
			g = &refGroup{aggs: make([]refAgg, len(f.q.Aggregates))}
			for _, c := range f.q.GroupBy {
				v := row[c]
				if v.Type == geometry.Char {
					padded := make([]byte, f.sch.Column(c).Width)
					copy(padded, refTrim(v.Bytes))
					v.Bytes = padded
				}
				g.key = append(g.key, v)
			}
			f.groups[string(id)] = g
		}
		g.rows++
		aggs = g.aggs
	}
	for i, t := range f.q.Aggregates {
		if t.Arg == nil {
			aggs[i].n++
			continue
		}
		aggs[i].add(t.Arg.EvalF(func(c int) table.Value { return row[c] }))
	}
}

func (f *refFold) result() *Result {
	res := &Result{Engine: "REF", RowsPassed: f.rows, Checksum: f.checksum}
	if len(f.q.Aggregates) == 0 {
		return res
	}
	if len(f.q.GroupBy) == 0 {
		for i, t := range f.q.Aggregates {
			res.Aggs = append(res.Aggs, f.aggs[i].value(t.Kind))
		}
		return res
	}
	for _, g := range f.groups {
		row := GroupRow{Key: g.key, Count: g.rows}
		for i, t := range f.q.Aggregates {
			row.Aggs = append(row.Aggs, g.aggs[i].value(t.Kind))
		}
		res.Groups = append(res.Groups, row)
	}
	sort.Slice(res.Groups, func(i, j int) bool {
		return refKeyLess(res.Groups[i].Key, res.Groups[j].Key)
	})
	return res
}

// refKeyLess orders group keys column by column: integers and CHAR content
// ascending, DOUBLE ascending with every NaN last and equal values (-0.0
// and +0.0, NaN payloads) broken by their signed bits.
func refKeyLess(a, b []table.Value) bool {
	for k := range a {
		x, y := a[k], b[k]
		switch x.Type {
		case geometry.Float64:
			xn, yn := math.IsNaN(x.Float), math.IsNaN(y.Float)
			if xn != yn {
				return yn
			}
			if !xn && x.Float != y.Float {
				return x.Float < y.Float
			}
			if xb, yb := int64(math.Float64bits(x.Float)), int64(math.Float64bits(y.Float)); xb != yb {
				return xb < yb
			}
		case geometry.Char:
			if c := bytes.Compare(refTrim(x.Bytes), refTrim(y.Bytes)); c != 0 {
				return c < 0
			}
		default:
			if x.Int != y.Int {
				return x.Int < y.Int
			}
		}
	}
	return false
}

// q3ClassPlan builds fact ⋈ dim with a selection on each side and grouped
// aggregation over the combined namespace. Combined columns: fact(0..2)
// ++ dim(3..4).
func q3ClassPlan(f *joinPlanFixture, t *testing.T) *JoinPlan {
	t.Helper()
	probe := plan.NewScan("fact", "", nil).
		Filter(expr.Conjunction{{Col: 1, Op: expr.Lt, Operand: table.F64(80)}})
	build := plan.NewScan("dim", "", nil).
		Filter(expr.Conjunction{{Col: 1, Op: expr.Ge, Operand: table.I32(1)}})
	root := probe.Join(build, 0, 0).
		Aggregate([]int{4}, []plan.Agg{
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}},
			{Kind: expr.Count},
		})
	p, sk, err := FromJoinPlan(root, f.lookup)
	if err != nil {
		t.Fatalf("FromJoinPlan: %v", err)
	}
	if !sk.Empty() {
		t.Fatalf("unexpected sinks: %+v", sk)
	}
	return p
}

func TestJoinExecMatchesReference(t *testing.T) {
	f := newJoinPlanFixture(t, 2000, 60, 7)
	p := q3ClassPlan(f, t)
	ref := referenceJoin(p, materialize(f.fact), materialize(f.dim))
	if ref.RowsPassed == 0 {
		t.Fatal("reference join produced no rows; fixture is too sparse")
	}

	probes := map[string]func(scalar bool) Source{
		"ROW": func(fs bool) Source { return &RowEngine{Tbl: f.fact, Sys: f.sys, ForceScalar: fs} },
		"RM":  func(fs bool) Source { return &RMEngine{Tbl: f.fact, Sys: f.sys, ForceScalar: fs} },
	}
	for name, mk := range probes {
		for _, scalar := range []bool{false, true} {
			f.sys.ResetState()
			ex := &JoinExec{
				Plan:   p,
				Probe:  mk(scalar),
				Builds: []Source{&RowEngine{Tbl: f.dim, Sys: f.sys, ForceScalar: scalar}},
			}
			got, err := ex.Execute()
			if err != nil {
				t.Fatalf("%s probe (scalar=%v): %v", name, scalar, err)
			}
			if err := got.EquivalentTo(ref, 1e-9); err != nil {
				t.Errorf("%s probe (scalar=%v) disagrees with reference: %v", name, scalar, err)
			}
			wantScanned := int64(f.fact.NumRows() + f.dim.NumRows())
			if got.RowsScanned != wantScanned {
				t.Errorf("%s probe (scalar=%v) scanned %d rows, want %d", name, scalar, got.RowsScanned, wantScanned)
			}
		}
	}
}

// TestJoinExecRearmsBloomPerExecution re-executes one JoinExec over an
// offloaded RM probe after its build side grew: the Bloom pre-filter must
// come from the execution's own build, so the re-execution matches a fresh
// executor and the reference, and the caller's probe source is left as it
// was given.
func TestJoinExecRearmsBloomPerExecution(t *testing.T) {
	f := newJoinPlanFixture(t, 2000, 60, 7)
	p := q3ClassPlan(f, t)
	dimRows := materialize(f.dim)
	small := buildJoinTable(t, f.sys, "dim", dimSchema(), dimRows[:5], false)

	probe := &RMEngine{Tbl: f.fact, Sys: f.sys, Offload: true}
	ex := &JoinExec{Plan: p, Probe: probe, Builds: []Source{&RMEngine{Tbl: small, Sys: f.sys}}}
	first, err := ex.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if first.Offload != "semi-join" {
		t.Fatalf("offloaded probe ran with offload %q, want semi-join", first.Offload)
	}
	if probe.SemiJoin != nil {
		t.Fatal("Execute armed the caller's probe source with its Bloom filter")
	}
	ex.Builds = []Source{&RMEngine{Tbl: f.dim, Sys: f.sys}}
	again, err := ex.Execute()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := (&JoinExec{Plan: p, Probe: &RMEngine{Tbl: f.fact, Sys: f.sys, Offload: true},
		Builds: []Source{&RMEngine{Tbl: f.dim, Sys: f.sys}}}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceJoin(p, materialize(f.fact), dimRows)
	if err := again.EquivalentTo(fresh, 0); err != nil {
		t.Errorf("re-execution disagrees with a fresh executor: %v", err)
	}
	if err := again.EquivalentTo(ref, 1e-9); err != nil {
		t.Errorf("re-execution disagrees with the reference: %v", err)
	}
}

func TestJoinExecSpanReconciliation(t *testing.T) {
	f := newJoinPlanFixture(t, 1200, 40, 11)
	p := q3ClassPlan(f, t)
	tr := obs.NewTracer("join")
	ex := &JoinExec{
		Plan:   p,
		Probe:  &RowEngine{Tbl: f.fact, Sys: f.sys, Tracer: tr},
		Builds: []Source{&RowEngine{Tbl: f.dim, Sys: f.sys, Tracer: tr}},
	}
	res, err := ex.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Root().AttributedCycles(); got != res.Breakdown.TotalCycles {
		t.Errorf("root span attributes %d cycles, breakdown totals %d", got, res.Breakdown.TotalCycles)
	}
}

func TestParallelJoinExecMatchesSerial(t *testing.T) {
	f := newJoinPlanFixture(t, 3000, 80, 13)
	p := q3ClassPlan(f, t)

	f.sys.ResetState()
	serial := &JoinExec{
		Plan:   p,
		Probe:  &RMEngine{Tbl: f.fact, Sys: f.sys},
		Builds: []Source{&RMEngine{Tbl: f.dim, Sys: f.sys}},
	}
	want, err := serial.Execute()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 8} {
		f.sys.ResetState()
		tr := obs.NewTracer("parjoin")
		par := &ParallelJoinExec{
			Plan:     p,
			ProbeTbl: f.fact,
			Sys:      f.sys,
			Par:      ParallelConfig{Workers: workers, MorselRows: 512},
			Builds:   []Source{&RMEngine{Tbl: f.dim, Sys: f.sys, Tracer: tr}},
			Tracer:   tr,
		}
		got, err := par.Execute()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := got.EquivalentTo(want, 1e-9); err != nil {
			t.Errorf("workers=%d disagrees with serial join: %v", workers, err)
		}
		if got.RowsScanned != want.RowsScanned {
			t.Errorf("workers=%d scanned %d rows, want %d", workers, got.RowsScanned, want.RowsScanned)
		}
		if at := tr.Root().AttributedCycles(); at != got.Breakdown.TotalCycles {
			t.Errorf("workers=%d: root span attributes %d cycles, breakdown totals %d", workers, at, got.Breakdown.TotalCycles)
		}
	}

	// Reproducibility: the same configuration yields the same modeled cost
	// regardless of goroutine interleaving. (Across worker counts only the
	// makespan changes — the cost model rewards parallelism.)
	run := func() uint64 {
		f.sys.ResetState()
		r, err := (&ParallelJoinExec{Plan: p, ProbeTbl: f.fact, Sys: f.sys,
			Par:    ParallelConfig{Workers: 4, MorselRows: 512},
			Builds: []Source{&RMEngine{Tbl: f.dim, Sys: f.sys}}}).Execute()
		if err != nil {
			t.Fatal(err)
		}
		return r.Breakdown.TotalCycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("modeled cycles differ across identical runs: %d vs %d", a, b)
	}
}

func TestFromJoinPlanRejectsBadTrees(t *testing.T) {
	f := newJoinPlanFixture(t, 10, 5, 1)
	cases := []struct {
		name string
		root *plan.Node
	}{
		{"key type mismatch", plan.NewScan("fact", "", nil).
			Join(plan.NewScan("dim", "", nil), 1 /* val: float */, 0 /* id: int */).
			Aggregate([]int{4}, []plan.Agg{{Kind: expr.Count}})},
		{"probe key in build range", plan.NewScan("fact", "", nil).
			Join(plan.NewScan("dim", "", nil), 3, 0).
			Aggregate([]int{4}, []plan.Agg{{Kind: expr.Count}})},
		{"build key out of range", plan.NewScan("fact", "", nil).
			Join(plan.NewScan("dim", "", nil), 0, 9).
			Aggregate([]int{4}, []plan.Agg{{Kind: expr.Count}})},
	}
	for _, tc := range cases {
		if _, _, err := FromJoinPlan(tc.root, f.lookup); err == nil {
			t.Errorf("%s: FromJoinPlan accepted an invalid tree", tc.name)
		}
	}
}

func TestJoinSchemaQualifiesDuplicates(t *testing.T) {
	a := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "x", Type: geometry.Int32, Width: 4},
	)
	b := geometry.MustSchema(
		geometry.Column{Name: "id", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "y", Type: geometry.Int32, Width: 4},
	)
	sch, offs, err := JoinSchema([]string{"l", "r"}, []*geometry.Schema{a, b})
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"l.id", "x", "r.id", "y"}
	for i, w := range wantNames {
		if got := sch.Column(i).Name; got != w {
			t.Errorf("column %d named %q, want %q", i, got, w)
		}
	}
	if offs[0] != 0 || offs[1] != 2 {
		t.Errorf("offsets = %v, want [0 2]", offs)
	}
}
