package experiments

import "sort"

// Registry maps experiment IDs to their specs, in the order they appear in
// EXPERIMENTS.md.
var Registry = map[string]*Spec{
	"E1":  e1Spec,
	"E2":  e2Spec,
	"E3":  e3Spec,
	"E4":  e4Spec,
	"E5":  e5Spec,
	"E6":  e6Spec,
	"E7":  e7Spec,
	"E8":  e8Spec,
	"E9":  e9Spec,
	"E10": e10Spec,
	"E11": e11Spec,
	"E12": e12Spec,
	"E13": e13Spec,
	"E14": e14Spec,
	"E15": e15Spec,
	"E16": e16Spec,
	"E17": e17Spec,
	"E18": e18Spec,
	"Q1":  q1Spec,
	"Q2":  q2Spec,
	"Q3":  q3Spec,
	"Q4":  q4Spec,
	"Q5":  q5Spec,
	"Q6":  q6Spec,
}

// IDs returns the experiment identifiers in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a[0] != b[0] {
			return a[0] < b[0] // E* before Q*
		}
		if len(a) != len(b) {
			return len(a) < len(b) // E2 before E10
		}
		return a < b
	})
	return ids
}

// PortableIDs returns the identifiers of the substrate-portable
// experiments — the slice that may run with Scale.Substrate set to a
// concurrent backend — in canonical order.
func PortableIDs() []string {
	var ids []string
	for _, id := range IDs() {
		if Registry[id].Portable {
			ids = append(ids, id)
		}
	}
	return ids
}
