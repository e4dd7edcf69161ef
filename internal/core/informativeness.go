package core

import (
	"math"

	"thetis/internal/kg"
	"thetis/internal/lake"
)

// Informativeness is the entity weight I : N → [0, 1] of Section 5.2,
// expressing how discriminative a query entity is. Weights multiply the
// squared per-entity miss in the weighted Euclidean distance (Equation 2).
type Informativeness func(e kg.EntityID) float64

// UniformInformativeness weighs every entity equally at 1.
func UniformInformativeness(kg.EntityID) float64 { return 1 }

// IDFInformativeness derives weights from corpus entity frequency: rare
// entities (a specific player) weigh more than ubiquitous ones (a city),
// using a normalized inverse document frequency
//
//	I(e) = log(1 + N/df(e)) / log(1 + N)
//
// where N is the number of tables and df(e) the number of tables mentioning
// e. Entities absent from the corpus get the maximum weight 1.
//
// N and df are read live on every call, so the closure stays correct as the
// lake mutates (the scorer evaluates it once per query entity, so the live
// read is off the per-table hot path). An empty corpus weighs every entity
// at 1.
func IDFInformativeness(l *lake.Lake) Informativeness {
	return func(e kg.EntityID) float64 {
		n := float64(l.NumTables())
		if n == 0 {
			return 1
		}
		df := float64(l.EntityFrequency(e))
		if df == 0 {
			return 1
		}
		return math.Log(1+n/df) / math.Log(1+n)
	}
}
