// Package supfix exercises the suppression layer. Expected findings for
// this fixture are hard-coded in fixture_test.go (the directive lines
// cannot also carry want markers).
package supfix

import (
	"fmt"
	"math/rand"
)

// End-of-line form: silences exactly this line's seeded-source finding.
func Suppressed() rand.Source {
	return rand.NewSource(11) //tsvet:ignore seeded-source fixture exercises a sanctioned constant seed
}

// Own-line form: the directive's own line has no finding, so it applies to
// the line directly below.
func SuppressedBelow() rand.Source {
	//tsvet:ignore seeded-source fixture exercises a sanctioned constant seed
	return rand.NewSource(12)
}

// Two rules on one line, one directive: the map-order finding is excused,
// the seeded-source finding on the same line survives.
func Partial(m map[string]int) {
	for k := range m { _ = rand.Intn(len(m)); fmt.Println(k) } //tsvet:ignore map-order fixture excuses only the map-order half
}

// Nothing left to excuse: the directive itself is reported as stale.
func Clean() int {
	//tsvet:ignore map-order nothing here anymore
	return 1
}

// No reason: reported as malformed, and the finding it points at survives
// (a suppression that cannot say why does not suppress).
func MissingReason() rand.Source {
	return rand.NewSource(13) //tsvet:ignore seeded-source
}

// Unknown rule: typos must not silently succeed.
func UnknownRule() int {
	//tsvet:ignore no-such-rule because typos must not suppress
	return 2
}
