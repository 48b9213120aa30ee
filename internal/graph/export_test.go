package graph

// ContractionLevels reports how many levels a workspace holds: one more than
// the deepest contraction any of its solves reached.
func ContractionLevels(a *Arborescer) int { return len(a.levels) }
