package engine

import (
	"bytes"
	"math"
	"sort"

	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// groupTable is the engine's one grouping structure, shared by the batch
// executor, the scalar consumer, and the PAR merge. It maps group keys to
// dense group ids (assigned in first-seen order) through an open-addressing
// slot array, stores each key column typed and flat, and keeps the groups'
// aggregate states in one gid-major []vec.AggState.
//
// Group identity is bitwise per key column: integers by value, DOUBLE by
// IEEE-754 bits (so -0.0 and +0.0, and distinct NaN payloads, are distinct
// groups), CHAR by its bytes with trailing NUL padding trimmed (embedded NULs
// are significant). A table lives for one execution; nothing keeps a grown
// table alive between queries.
type groupTable struct {
	keys   []groupKeyCol
	naggs  int
	slots  []int32 // gid+1 per slot, 0 when empty; len is a power of two
	hashes []uint64
	counts []int64        // rows folded per group
	states []vec.AggState // group gid's term t at gid*naggs+t
}

// groupKeyCol stores one key column for every group.
type groupKeyCol struct {
	typ   geometry.ColumnType
	width int      // CHAR output width: keys are re-padded to it
	num   []uint64 // integer keys, or DOUBLE key bits, by gid
	ends  []int32  // CHAR: end offset of group gid's key in arena
	arena []byte   // CHAR: every group's trimmed key, concatenated
}

// groupKeySrc is one key column of a decoded batch: a numeric lane, or a
// CHAR column read in place at off + row*stride.
type groupKeySrc struct {
	i64         []int64
	f64         []float64
	src         []byte
	off, stride int
}

const groupTableInitSlots = 16

func newGroupTable(cols []geometry.Column, naggs int) *groupTable {
	g := &groupTable{keys: make([]groupKeyCol, len(cols)), naggs: naggs,
		slots: make([]int32, groupTableInitSlots)}
	for i, c := range cols {
		g.keys[i] = groupKeyCol{typ: c.Type, width: c.Width}
	}
	return g
}

// newQueryGroups returns the group table for a grouped query over sch, or
// nil when the query does not group.
func newQueryGroups(q Query, sch *geometry.Schema) *groupTable {
	if len(q.GroupBy) == 0 {
		return nil
	}
	cols := make([]geometry.Column, len(q.GroupBy))
	for i, c := range q.GroupBy {
		cols[i] = sch.Column(c)
	}
	return newGroupTable(cols, len(q.Aggregates))
}

// aggs returns group gid's aggregate states.
func (g *groupTable) aggs(gid int32) []vec.AggState {
	i := int(gid) * g.naggs
	return g.states[i : i+g.naggs]
}

// lookup maps one boxed key to its group id, inserting a new group when the
// key is unseen.
func (g *groupTable) lookup(key []table.Value) int32 {
	h := vec.KeySeed
	for k, v := range key {
		switch g.keys[k].typ {
		case geometry.Float64:
			h = vec.HashKeyWord(h, math.Float64bits(v.Float))
		case geometry.Char:
			h = vec.HashKeyChar(h, v.Bytes)
		default:
			h = vec.HashKeyWord(h, uint64(v.Int))
		}
	}
	mask := len(g.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := g.slots[i]
		if s == 0 {
			gid := g.newGroup(h)
			for k, v := range key {
				c := &g.keys[k]
				switch c.typ {
				case geometry.Float64:
					c.num = append(c.num, math.Float64bits(v.Float))
				case geometry.Char:
					c.appendChar(vec.TrimPad(v.Bytes))
				default:
					c.num = append(c.num, uint64(v.Int))
				}
			}
			g.place(i, gid)
			return gid
		}
		if gid := s - 1; g.hashes[gid] == h && g.equalValues(gid, key) {
			return gid
		}
	}
}

func (g *groupTable) equalValues(gid int32, key []table.Value) bool {
	for k, v := range key {
		c := &g.keys[k]
		switch c.typ {
		case geometry.Float64:
			if c.num[gid] != math.Float64bits(v.Float) {
				return false
			}
		case geometry.Char:
			if !bytes.Equal(c.char(gid), vec.TrimPad(v.Bytes)) {
				return false
			}
		default:
			if c.num[gid] != uint64(v.Int) {
				return false
			}
		}
	}
	return true
}

// lookupBatch maps every selected row of a decoded batch to its group id,
// inserting unseen keys in row order: gids[j] is the group of the row whose
// numeric key lanes sit at sel[j] and whose CHAR keys sit at row rows[j].
// hashes is scratch of at least len(sel).
func (g *groupTable) lookupBatch(keys []groupKeySrc, sel, rows []int32, hashes []uint64, gids []int32) {
	h := hashes[:len(sel)]
	for j := range h {
		h[j] = vec.KeySeed
	}
	for k := range g.keys {
		ks := &keys[k]
		switch g.keys[k].typ {
		case geometry.Float64:
			vec.HashLaneF64(h, ks.f64, sel)
		case geometry.Char:
			vec.HashLaneChar(h, ks.src, ks.off, ks.stride, g.keys[k].width, rows)
		default:
			vec.HashLaneI64(h, ks.i64, sel)
		}
	}
	for j, hv := range h {
		gids[j] = g.findRow(hv, keys, sel[j], rows[j])
	}
}

func (g *groupTable) findRow(h uint64, keys []groupKeySrc, r, row int32) int32 {
	mask := len(g.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := g.slots[i]
		if s == 0 {
			gid := g.newGroup(h)
			for k := range g.keys {
				c, ks := &g.keys[k], &keys[k]
				switch c.typ {
				case geometry.Float64:
					c.num = append(c.num, math.Float64bits(ks.f64[r]))
				case geometry.Char:
					c.appendChar(vec.TrimPad(ks.charAt(row, c.width)))
				default:
					c.num = append(c.num, uint64(ks.i64[r]))
				}
			}
			g.place(i, gid)
			return gid
		}
		if gid := s - 1; g.hashes[gid] == h && g.equalRow(gid, keys, r, row) {
			return gid
		}
	}
}

func (g *groupTable) equalRow(gid int32, keys []groupKeySrc, r, row int32) bool {
	for k := range g.keys {
		c, ks := &g.keys[k], &keys[k]
		switch c.typ {
		case geometry.Float64:
			if c.num[gid] != math.Float64bits(ks.f64[r]) {
				return false
			}
		case geometry.Char:
			if !bytes.Equal(c.char(gid), vec.TrimPad(ks.charAt(row, c.width))) {
				return false
			}
		default:
			if c.num[gid] != uint64(ks.i64[r]) {
				return false
			}
		}
	}
	return true
}

func (ks *groupKeySrc) charAt(row int32, width int) []byte {
	o := ks.off + int(row)*ks.stride
	return ks.src[o : o+width]
}

// keyGroup maps a one-column key with hash h — w for an integer key (its
// value) or a DOUBLE key (its bits), the trimmed bytes b for a CHAR key — to
// its group id. An unseen key gets a new group when insert is set, and -1
// otherwise; lookups without insert never write, so concurrent probes of a
// finished table are safe.
func (g *groupTable) keyGroup(h, w uint64, b []byte, insert bool) int32 {
	c := &g.keys[0]
	char := c.typ == geometry.Char
	mask := len(g.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := g.slots[i]
		if s == 0 {
			if !insert {
				return -1
			}
			gid := g.newGroup(h)
			if char {
				c.appendChar(b)
			} else {
				c.num = append(c.num, w)
			}
			g.place(i, gid)
			return gid
		}
		gid := s - 1
		if g.hashes[gid] == h && (char && bytes.Equal(c.char(gid), b) || !char && c.num[gid] == w) {
			return gid
		}
	}
}

// newGroup appends a group's hash, count and zeroed states; the caller
// appends its key columns and places it.
func (g *groupTable) newGroup(h uint64) int32 {
	gid := int32(len(g.hashes))
	g.hashes = append(g.hashes, h)
	g.counts = append(g.counts, 0)
	for t := 0; t < g.naggs; t++ {
		g.states = append(g.states, vec.AggState{})
	}
	return gid
}

// place stores gid in slot i, doubling the slot array past half full.
func (g *groupTable) place(i int, gid int32) {
	g.slots[i] = gid + 1
	if 2*len(g.hashes) <= len(g.slots) {
		return
	}
	g.slots = make([]int32, 2*len(g.slots))
	mask := len(g.slots) - 1
	for gid, h := range g.hashes {
		j := int(h) & mask
		for g.slots[j] != 0 {
			j = (j + 1) & mask
		}
		g.slots[j] = int32(gid) + 1
	}
}

func (c *groupKeyCol) appendChar(b []byte) {
	c.arena = append(c.arena, b...)
	c.ends = append(c.ends, int32(len(c.arena)))
}

// char returns group gid's trimmed CHAR key.
func (c *groupKeyCol) char(gid int32) []byte {
	start := int32(0)
	if gid > 0 {
		start = c.ends[gid-1]
	}
	return c.arena[start:c.ends[gid]]
}

// key rebuilds group gid's key column as a Value; CHAR keys come back
// padded to the column width, exactly as the row codec decodes them, in
// pad: a zeroed buffer of at least the width that the value keeps.
func (c *groupKeyCol) key(gid int32, pad []byte) table.Value {
	switch c.typ {
	case geometry.Float64:
		return table.Value{Type: c.typ, Float: math.Float64frombits(c.num[gid])}
	case geometry.Char:
		out := pad[:c.width:c.width]
		copy(out, c.char(gid))
		return table.Value{Type: c.typ, Bytes: out}
	default:
		return table.Value{Type: c.typ, Int: int64(c.num[gid])}
	}
}

// rows assembles the grouped output, sorted by key. Every group's Key and
// Aggs, and every padded CHAR key, are cut from flat backing arrays with
// full-slice expressions, so the output costs a fixed number of
// allocations however many groups there are, and appending to one row's
// slice never writes into another's.
func (g *groupTable) rows(terms []AggTerm) []GroupRow {
	n := len(g.hashes)
	if n == 0 {
		return nil
	}
	nk := len(g.keys)
	out := make([]GroupRow, n)
	keys := make([]table.Value, n*nk)
	aggs := make([]table.Value, n*g.naggs)
	charWidth := 0
	for k := range g.keys {
		if g.keys[k].typ == geometry.Char {
			charWidth += g.keys[k].width
		}
	}
	chars := make([]byte, n*charWidth)
	for i := range out {
		gid := int32(i)
		key := keys[i*nk : (i+1)*nk : (i+1)*nk]
		for k := range g.keys {
			key[k] = g.keys[k].key(gid, chars)
			if g.keys[k].typ == geometry.Char {
				chars = chars[g.keys[k].width:]
			}
		}
		row := GroupRow{Key: key, Count: g.counts[gid],
			Aggs: aggs[i*g.naggs : (i+1)*g.naggs : (i+1)*g.naggs]}
		for t, st := range g.aggs(gid) {
			row.Aggs[t] = aggResult(terms[t].Kind, st)
		}
		out[i] = row
	}
	SortGroups(out)
	return out
}

// SortGroups orders grouped output by key so every engine (and the shard
// coordinator) emits the same order. The order is total over group
// identities: values compare as table.Value.Compare does, and keys Compare
// cannot tell apart — -0.0 and +0.0, or NaNs, which group by bits — break
// the tie on their canonical bits, with every NaN after every number.
func SortGroups(groups []GroupRow) {
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i].Key, groups[j].Key
		for k := range a {
			if c := compareKey(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func compareKey(a, b table.Value) int {
	if a.Type != geometry.Float64 {
		return a.Compare(b)
	}
	if an, bn := math.IsNaN(a.Float), math.IsNaN(b.Float); an != bn {
		if an {
			return 1
		}
		return -1
	}
	if c := a.Compare(b); c != 0 {
		return c
	}
	ab, bb := int64(math.Float64bits(a.Float)), int64(math.Float64bits(b.Float))
	switch {
	case ab < bb:
		return -1
	case ab > bb:
		return 1
	}
	return 0
}
