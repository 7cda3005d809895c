// Package mapsrc hands out a map from another package, the shape of a
// summary helper whose result a caller ranges over.
package mapsrc

// Summarize returns per-key totals.
func Summarize() map[string]int { return map[string]int{"a": 1, "b": 2} }
