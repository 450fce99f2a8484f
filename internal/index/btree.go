// Package index provides the DBMS's index structures: an order-64 B+Tree
// for primary keys and range scans, and a hash index for secondary
// point lookups (the TATP indirection pattern). Keys are int64; composite
// keys are encoded by the catalog layer.
package index

import "slices"

// btreeOrder is the maximum number of keys per node.
const btreeOrder = 64

// BTree is an in-memory B+Tree mapping int64 keys to one or more TupleIDs
// (int64).
//
// A node's entries are fixed arrays with room for one key more than a node
// keeps, so an insert shifts entries in place and never grows a slice, and
// a split, which moves the upper half of an overfull node to a new right
// sibling, is one allocation. A leaf holds keys and TupleIDs, an internal
// node keys and children; neither carries the other's array.
//
// Nodes never merge: a delete shifts a leaf's entries in place, and a leaf
// it empties stays in the tree and on the leaf chain, where a later insert
// of a key it covers fills it again. Separators stay as they were, which
// keeps every key of a subtree between them.
type BTree struct {
	// root is a *leaf when height is 1 and an *inner above that: every
	// node height-1 levels below the root is a leaf.
	root   any
	height int
	size   int
	// postings holds, in insertion order, every TupleID of each key that
	// has more than one. Nearly every key has one, kept in its leaf.
	postings map[int64][]int64
}

// leaf holds n keys in order and each key's first TupleID.
type leaf struct {
	n    int
	keys [btreeOrder + 1]int64
	tids [btreeOrder + 1]int64
	next *leaf // leaf chain for range scans
}

// inner holds n separator keys in order and n+1 children, each a *leaf or
// an *inner by level: keys in children[i] are at least keys[i-1] and below
// keys[i].
type inner struct {
	n        int
	keys     [btreeOrder + 1]int64
	children [btreeOrder + 2]any
}

// NewBTree creates an empty tree.
func NewBTree() *BTree {
	return &BTree{root: new(leaf), height: 1}
}

// Len returns the number of distinct keys: a key leaves with its last
// TupleID.
func (t *BTree) Len() int { return t.size }

// Height returns the tree height (1 = just the root leaf). The execution
// engine uses it to cost index probes.
func (t *BTree) Height() int { return t.height }

// Insert adds tid under key (duplicates allowed).
func (t *BTree) Insert(key int64, tid int64) {
	midKey, right := t.insert(t.root, t.height, key, tid)
	if right != nil {
		root := &inner{n: 1}
		root.keys[0] = midKey
		root.children[0], root.children[1] = t.root, right
		t.root = root
		t.height++
	}
}

// insert descends from n, a node level levels above the leaves (1 = a
// leaf), to the leaf; on overflow it splits and returns the separator key
// and new right sibling.
func (t *BTree) insert(n any, level int, key int64, tid int64) (int64, any) {
	if level == 1 {
		l := n.(*leaf)
		i, found := slices.BinarySearch(l.keys[:l.n], key)
		if found {
			if t.postings == nil {
				t.postings = make(map[int64][]int64)
			}
			t.postings[key] = append(t.tidsAt(l, i), tid)
			return 0, nil
		}
		copy(l.keys[i+1:l.n+1], l.keys[i:l.n])
		l.keys[i] = key
		copy(l.tids[i+1:l.n+1], l.tids[i:l.n])
		l.tids[i] = tid
		l.n++
		t.size++
		if l.n <= btreeOrder {
			return 0, nil
		}
		return l.split()
	}
	in := n.(*inner)
	i := in.child(key)
	midKey, right := t.insert(in.children[i], level-1, key, tid)
	if right == nil {
		return 0, nil
	}
	copy(in.keys[i+1:in.n+1], in.keys[i:in.n])
	in.keys[i] = midKey
	copy(in.children[i+2:in.n+2], in.children[i+1:in.n+1])
	in.children[i+1] = right
	in.n++
	if in.n <= btreeOrder {
		return 0, nil
	}
	return in.split()
}

// Delete removes tid from key's TupleIDs, and key from the tree once it has
// none; a (key, tid) the tree does not hold is left alone. The rest of the
// key's TupleIDs keep their order.
func (t *BTree) Delete(key int64, tid int64) {
	l := t.findLeaf(key)
	i, found := slices.BinarySearch(l.keys[:l.n], key)
	if !found {
		return
	}
	if p, ok := t.postings[key]; ok {
		j := slices.Index(p, tid)
		if j < 0 {
			return
		}
		p = slices.Delete(p, j, j+1)
		if len(p) == 1 {
			delete(t.postings, key)
		} else {
			t.postings[key] = p
		}
		l.tids[i] = p[0]
		return
	}
	if l.tids[i] != tid {
		return
	}
	copy(l.keys[i:l.n-1], l.keys[i+1:l.n])
	copy(l.tids[i:l.n-1], l.tids[i+1:l.n])
	l.n--
	t.size--
}

// split moves the upper half of l's keys, from the middle one on, to a new
// right sibling and returns that sibling and its first key.
func (l *leaf) split() (int64, any) {
	mid := l.n / 2
	right := &leaf{n: l.n - mid, next: l.next}
	copy(right.keys[:], l.keys[mid:l.n])
	copy(right.tids[:], l.tids[mid:l.n])
	l.n = mid
	l.next = right
	return right.keys[0], right
}

// split moves the keys above the middle one, and the children right of it,
// to a new right sibling and returns that sibling and the middle key, which
// moves up.
func (in *inner) split() (int64, any) {
	mid := in.n / 2
	right := &inner{n: in.n - mid - 1}
	copy(right.keys[:], in.keys[mid+1:in.n])
	copy(right.children[:], in.children[mid+1:in.n+1])
	clear(in.children[mid+1 : in.n+1])
	in.n = mid
	return in.keys[mid], right
}

// child returns the index of the child whose keys cover key: the first
// separator above key. Separators are distinct.
func (in *inner) child(key int64) int {
	i, found := slices.BinarySearch(in.keys[:in.n], key)
	if found {
		i++
	}
	return i
}

func (t *BTree) findLeaf(key int64) *leaf {
	n := t.root
	for level := t.height; level > 1; level-- {
		in := n.(*inner)
		n = in.children[in.child(key)]
	}
	return n.(*leaf)
}

// tidsAt returns the TupleIDs under leaf l's i-th key: its posting list, or
// a one-element view of the leaf that an append cannot grow in place.
func (t *BTree) tidsAt(l *leaf, i int) []int64 {
	if len(t.postings) != 0 {
		if p, ok := t.postings[l.keys[i]]; ok {
			return p
		}
	}
	return l.tids[i : i+1 : i+1]
}

// Search returns the TupleIDs stored under key (nil if absent). The
// returned slice must not be mutated.
func (t *BTree) Search(key int64) []int64 {
	l := t.findLeaf(key)
	if i, found := slices.BinarySearch(l.keys[:l.n], key); found {
		return t.tidsAt(l, i)
	}
	return nil
}

// Range calls fn for each (key, tids) with lo <= key <= hi, in key order,
// until fn returns false. A binary search finds lo's slot in its leaf; the
// leaves after it hold only larger keys.
func (t *BTree) Range(lo, hi int64, fn func(key int64, tids []int64) bool) {
	l := t.findLeaf(lo)
	i, _ := slices.BinarySearch(l.keys[:l.n], lo)
	for ; l != nil; l, i = l.next, 0 {
		for ; i < l.n; i++ {
			k := l.keys[i]
			if k > hi {
				return
			}
			if !fn(k, t.tidsAt(l, i)) {
				return
			}
		}
	}
}
