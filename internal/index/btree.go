// Package index provides the DBMS's index structures: an order-64 B+Tree
// for primary keys and range scans, and a hash index for secondary
// point lookups (the TATP indirection pattern). Keys are int64; composite
// keys are encoded by the catalog layer.
package index

import "sort"

// btreeOrder is the maximum number of keys per node.
const btreeOrder = 64

// BTree is an in-memory B+Tree mapping int64 keys to one or more TupleIDs
// (int64). It is not safe for concurrent mutation; the DBMS serializes
// index writes per table.
type BTree struct {
	root   *btreeNode
	height int
	size   int
	// postings holds, in insertion order, every TupleID of each key that
	// has more than one. Nearly every key has one, kept in its leaf.
	postings map[int64][]int64
}

type btreeNode struct {
	leaf     bool
	keys     []int64
	children []*btreeNode // internal nodes
	tids     []int64      // leaf nodes: each key's first TupleID
	next     *btreeNode   // leaf chain for range scans
}

// NewBTree creates an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btreeNode{leaf: true}, height: 1}
}

// Len returns the number of distinct keys.
func (t *BTree) Len() int { return t.size }

// Height returns the tree height (1 = just the root leaf). The execution
// engine uses it to cost index probes.
func (t *BTree) Height() int { return t.height }

// Insert adds tid under key (duplicates allowed).
func (t *BTree) Insert(key int64, tid int64) {
	midKey, right := t.insert(t.root, key, tid)
	if right != nil {
		newRoot := &btreeNode{
			keys:     []int64{midKey},
			children: []*btreeNode{t.root, right},
		}
		t.root = newRoot
		t.height++
	}
}

// insert descends to the leaf; on overflow it splits and returns the
// separator key and new right sibling.
func (t *BTree) insert(n *btreeNode, key int64, tid int64) (int64, *btreeNode) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			if t.postings == nil {
				t.postings = make(map[int64][]int64)
			}
			t.postings[key] = append(t.tidsAt(n, i), tid)
			return 0, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.tids = append(n.tids, 0)
		copy(n.tids[i+1:], n.tids[i:])
		n.tids[i] = tid
		t.size++
		if len(n.keys) <= btreeOrder {
			return 0, nil
		}
		return t.splitLeaf(n)
	}
	i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	midKey, right := t.insert(n.children[i], key, tid)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = midKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.keys) <= btreeOrder {
		return 0, nil
	}
	return t.splitInternal(n)
}

func (t *BTree) splitLeaf(n *btreeNode) (int64, *btreeNode) {
	mid := len(n.keys) / 2
	right := &btreeNode{
		leaf: true,
		keys: append([]int64(nil), n.keys[mid:]...),
		tids: append([]int64(nil), n.tids[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.tids = n.tids[:mid]
	n.next = right
	return right.keys[0], right
}

func (t *BTree) splitInternal(n *btreeNode) (int64, *btreeNode) {
	mid := len(n.keys) / 2
	midKey := n.keys[mid]
	right := &btreeNode{
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]*btreeNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return midKey, right
}

func (t *BTree) findLeaf(key int64) *btreeNode {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n = n.children[i]
	}
	return n
}

// tidsAt returns the TupleIDs under leaf n's i-th key: its posting list, or
// a one-element view of the leaf that an append cannot grow in place.
func (t *BTree) tidsAt(n *btreeNode, i int) []int64 {
	if len(t.postings) != 0 {
		if p, ok := t.postings[n.keys[i]]; ok {
			return p
		}
	}
	return n.tids[i : i+1 : i+1]
}

// Search returns the TupleIDs stored under key (nil if absent). The
// returned slice must not be mutated.
func (t *BTree) Search(key int64) []int64 {
	n := t.findLeaf(key)
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		return t.tidsAt(n, i)
	}
	return nil
}

// Delete removes tid from key's postings, dropping the key when empty.
// It reports whether the (key, tid) pair existed. Underfull nodes are not
// rebalanced (deletes are rare in the evaluated workloads); lookups remain
// correct.
func (t *BTree) Delete(key int64, tid int64) bool {
	n := t.findLeaf(key)
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	vals := t.tidsAt(n, i)
	for j, v := range vals {
		if v != tid {
			continue
		}
		vals = append(vals[:j], vals[j+1:]...)
		if len(vals) == 0 {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.tids = append(n.tids[:i], n.tids[i+1:]...)
			t.size--
			return true
		}
		n.tids[i] = vals[0]
		if len(vals) == 1 {
			delete(t.postings, key)
		} else {
			t.postings[key] = vals
		}
		return true
	}
	return false
}

// Range calls fn for each (key, tids) with lo <= key <= hi, in key order,
// until fn returns false.
func (t *BTree) Range(lo, hi int64, fn func(key int64, tids []int64) bool) {
	n := t.findLeaf(lo)
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, t.tidsAt(n, i)) {
				return
			}
		}
		n = n.next
	}
}

// Min returns the smallest key, or (0,false) when empty.
func (t *BTree) Min() (int64, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		return 0, false
	}
	return n.keys[0], true
}

// Max returns the largest key, or (0,false) when empty.
func (t *BTree) Max() (int64, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		return 0, false
	}
	return n.keys[len(n.keys)-1], true
}
