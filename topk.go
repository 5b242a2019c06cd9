package inferray

// ORDER BY buffering. A query with ORDER BY cannot stream, but it does
// not always have to buffer the whole solution set either: with an
// effective limit only the OFFSET+LIMIT smallest rows under the sort
// order can ever be delivered, so the buffer is a bounded binary heap
// (container/heap) of exactly that many rows. The stage decodes a row's
// sort keys once, when it arrives, and compares decoded keys from then
// on. Ties beyond the sort keys break on arrival order, which makes the
// order strict and total — so both modes deliver byte-for-byte what a
// stable full sort followed by OFFSET/LIMIT delivers.

import (
	"container/heap"
	"slices"
	"sort"

	"inferray/internal/sparql"
)

// orderBuffer collects slot rows for ORDER BY in a max-heap rooted at
// the largest kept row: the k smallest seen so far when k ≥ 0 — a new
// row either displaces the root or is dropped — and every row when
// k < 0. It is its own heap.Interface.
type orderBuffer struct {
	run   *run
	keys  []sparql.OrderKey
	slots []int // slot of each key
	k     int
	rows  []*seqRow
	seq   int
	probe seqRow // the arriving row's keys, decoded before it is known to be kept
}

// seqRow is one buffered solution: a copy of the slot row, its decoded
// ORDER BY cells ("" where unbound, which sorts before any term — see
// sparql.CompareTerms) and its arrival rank.
type seqRow struct {
	ids   []uint64
	bound uint64
	keys  []string
	seq   int
}

func newOrderBuffer(rn *run, keys []sparql.OrderKey, k int) *orderBuffer {
	ob := &orderBuffer{run: rn, keys: keys, k: k}
	for _, key := range keys {
		ob.slots = append(ob.slots, rn.slots[key.Var])
	}
	return ob
}

// less orders two rows by the ORDER BY keys, then by arrival.
func (ob *orderBuffer) less(a, b *seqRow) bool {
	for i, k := range ob.keys {
		c := sparql.CompareTerms(a.keys[i], b.keys[i])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return a.seq < b.seq
}

func (ob *orderBuffer) push(ids []uint64, bound uint64) bool {
	p := &ob.probe
	p.keys, p.seq = p.keys[:0], ob.seq
	ob.seq++
	for _, slot := range ob.slots {
		term, _ := ob.run.cell(ids, bound, slot)
		p.keys = append(p.keys, term)
	}
	switch {
	case ob.k < 0 || len(ob.rows) < ob.k:
		heap.Push(ob, &seqRow{ids: slices.Clone(ids), bound: bound, keys: slices.Clone(p.keys), seq: p.seq})
	case ob.k > 0 && ob.less(p, ob.rows[0]):
		root := ob.rows[0] // displaced: its buffers take the new row
		copy(root.ids, ids)
		copy(root.keys, p.keys)
		root.bound, root.seq = bound, p.seq
		heap.Fix(ob, 0)
	}
	return true
}

// flush delivers the buffered rows in sort order; emit may return
// false to stop early.
func (ob *orderBuffer) flush(emit stage) {
	sort.Slice(ob.rows, func(i, j int) bool { return ob.less(ob.rows[i], ob.rows[j]) })
	for _, r := range ob.rows {
		if !emit(r.ids, r.bound) {
			return
		}
	}
}

// Len, Less, Swap, Push and Pop make the buffer a max-heap for
// container/heap.
func (ob *orderBuffer) Len() int           { return len(ob.rows) }
func (ob *orderBuffer) Less(i, j int) bool { return ob.less(ob.rows[j], ob.rows[i]) }
func (ob *orderBuffer) Swap(i, j int)      { ob.rows[i], ob.rows[j] = ob.rows[j], ob.rows[i] }
func (ob *orderBuffer) Push(x any)         { ob.rows = append(ob.rows, x.(*seqRow)) }
func (ob *orderBuffer) Pop() any           { panic("orderBuffer: rows leave through flush") }
