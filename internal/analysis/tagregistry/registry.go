// Package tagregistry is the single source of truth for the comm fabric's
// reserved message-tag ranges. The tagcheck analyzer (internal/analysis/
// tagcheck) reads it to flag user tags that collide with framework-internal
// traffic; the ranges themselves are written in terms of the owning
// packages' exported constants, so the registry cannot drift from the code
// it protects — recompiling odinvet re-reads the reservations from source.
//
// Reserving a new tag or range means adding an entry here (referencing a
// named constant exported by the owning package) in the same change that
// introduces the traffic. tagcheck then enforces the reservation everywhere.
package tagregistry

import (
	"math"

	"odinhpc/internal/core"
	"odinhpc/internal/slicing"
)

// Range is one reserved span of message tags. Owner is the short name of
// the package that owns the reservation; constants declared in the owning
// package (and uses inside it) are exempt from collision findings, since
// that is where the reserved traffic legitimately originates.
type Range struct {
	Name   string // human-readable label for diagnostics
	Lo, Hi int64  // inclusive bounds
	Owner  string // short package name, e.g. "comm"
}

// Contains reports whether tag falls inside the range.
func (r Range) Contains(tag int64) bool { return r.Lo <= tag && tag <= r.Hi }

// Reserved returns the reserved tag ranges of the framework:
//
//   - Every negative tag belongs to the comm package. Collectives stamp
//     their point-to-point rounds with strongly negative tags (see
//     collTag in internal/comm/collectives.go), and the AnySource/AnyTag
//     wildcards are -1; a user tag below zero can be swallowed by a
//     concurrent collective or alias the wildcard.
//   - core.CtrlTag carries ODIN's master-to-worker control descriptors.
//   - slicing.HaloTag carries ShiftDiff's boundary exchange; experiment
//     E13 filters trace captures by this tag, so halo traffic must stay
//     alone on it.
func Reserved() []Range {
	return []Range{
		{Name: "comm collective-internal / wildcard (negative tags)", Lo: math.MinInt64, Hi: -1, Owner: "comm"},
		{Name: "core control plane (core.CtrlTag)", Lo: core.CtrlTag, Hi: core.CtrlTag, Owner: "core"},
		{Name: "slicing halo exchange (slicing.HaloTag)", Lo: slicing.HaloTag, Hi: slicing.HaloTag, Owner: "slicing"},
	}
}

// Lookup returns the reserved range containing tag, if any.
// Test seam: resolves tags in the registry tests.
func Lookup(tag int64) (Range, bool) {
	for _, r := range Reserved() {
		if r.Contains(tag) {
			return r, true
		}
	}
	return Range{}, false
}
