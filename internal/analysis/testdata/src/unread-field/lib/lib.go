// Package lib exercises unread-field. The fixture is a module of its own,
// so a run over its root sees every file that could read lib's fields:
// cmd/app's non-test code counts, lib_test.go does not. Record writes
// every field of State; each is read one way, or not at all.
package lib

import (
	"encoding/json"
	"fmt"
)

// State is what Record writes.
type State struct {
	Total    int            // returned by Sum
	TestOnly int            // want:unread-field
	Summed   int            // want:unread-field
	Counted  int            // want:unread-field
	Index    map[string]int // want:unread-field
	Slots    []int          // want:unread-field
	Target   *Sink          // followed to write its pointee
	Deref    *int           // dereferenced to write its pointee
	Shown    Shown          // passed to fmt.Sprintf
	Encoded  *Wire          // passed to json.Marshal
	Key      Key            // compared with ==
	ByMain   int            // read only by cmd/app
	Excused  int            //tsvet:ignore unread-field read by a reflection-based encoder outside the module
	Stale    int            //tsvet:ignore unread-field Sum reads it // want:stale-ignore
}

// Sink's N is written through State.Target and read by Value.
type Sink struct{ N int }

// Shown's fields, and Pos's inside it, are read only by fmt.
type Shown struct {
	Label string
	At    Pos
}

// Pos is a struct value inside Shown.
type Pos struct{ Line int }

// Wire's field is read only by json, through a pointer.
type Wire struct{ Seq int }

// Key's field is read only by ==.
type Key struct{ ID int }

// New returns a State over sink and deref.
func New(sink *Sink, deref *int) *State {
	return &State{Index: map[string]int{}, Slots: make([]int, 1), Target: sink, Deref: deref, Encoded: &Wire{}}
}

// Record writes v into every field, one write form per field.
func (s *State) Record(v int) {
	s.Total = v
	s.TestOnly = v
	s.Summed += v
	s.Counted++
	s.Index["k"] = v
	s.Slots[0] = v
	s.Target.N = v
	*s.Deref = v
	s.Shown.Label = "v"
	s.Shown.At.Line = v
	s.Encoded.Seq = v
	s.Key.ID = v
	s.ByMain = v
	s.Excused = v
	s.Stale = v
}

// Sum reads Total and Stale.
func (s *State) Sum() int { return s.Total + s.Stale }

// Value reads N.
func (k *Sink) Value() int { return k.N }

// Describe renders Shown with fmt and Encoded with encoding/json.
func (s *State) Describe() string {
	b, err := json.Marshal(s.Encoded)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%v %s", s.Shown, b)
}

// Empty compares Key with its zero value.
func (s *State) Empty() bool { return s.Key == Key{} }
