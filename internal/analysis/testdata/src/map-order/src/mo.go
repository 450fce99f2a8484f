// Package mofix exercises the map-order rule: map iteration around an
// order-sensitive sink is flagged; the sorted-keys idiom, in-body sorts,
// exact integer accumulation, and loop-local accumulators are not.
package mofix

import (
	"bytes"
	"fmt"
	"sort"
)

func PrintAll(m map[string]int) {
	for k, v := range m { // want:map-order
		fmt.Println(k, v)
	}
}

func Archive(m map[string]int, buf *bytes.Buffer) {
	for k := range m { // want:map-order
		buf.WriteString(k)
	}
}

func Sum(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want:map-order
		total += v
	}
	return total
}

// Integer accumulation is exact and commutative: not flagged.
func Count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// The sanctioned idiom: collect keys, sort, range the slice. The map range
// only appends to the key slice — no sink — and the emitting loop ranges a
// slice, which is ordered. Not flagged.
func SortedIdiom(m map[string]int, buf *bytes.Buffer) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(buf, k, m[k])
	}
}

// A sort call inside the body vouches for the loop: not flagged.
func SortsInside(m map[string][]int, buf *bytes.Buffer) {
	for _, vs := range m {
		sort.Ints(vs)
		buf.WriteString(fmt.Sprint(len(vs)))
	}
}

// A loop-local accumulator resets each iteration and cannot leak order:
// not flagged.
func LocalAccum(m map[string]float64) float64 {
	max := 0.0
	for _, v := range m {
		x := 0.0
		x += v
		if x > max {
			max = x
		}
	}
	return max
}
