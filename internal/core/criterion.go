// Package core implements the paper's primary contribution: fast
// identification of robust dependent (RD) path delay faults without
// circuit unfolding (Sections IV and V).
//
// The entry points are:
//
//   - Enumerate: Algorithm 2 — implicit enumeration of all logical paths
//     with prime-segment pruning, checking one of three sensitization
//     criteria by local implications only. It computes the supersets
//     FS^sup(C), T^sup(C) and LP^sup(σ^π) and, per lead, the counts used
//     by Algorithm 3.
//   - Heuristic1Sort / Heuristic2Sort: the input-sort heuristics of
//     Section V.
//   - Identify: the full pipeline producing the Table I / Table II
//     numbers for a circuit.
package core

import (
	"fmt"

	"rdfault/internal/circuit"
)

// Criterion selects the sensitization conditions the enumerator checks
// for each logical path. All three share (π1) — the input vector sets
// PI(P) to the transition's final value — and (π2) — side inputs of gates
// whose on-path input is non-controlling must be non-controlling. They
// differ in what they require from the side inputs of gates whose on-path
// input has a controlling stable value:
//
//   - FS (Definition 4, Cheng/Chen): nothing. Paths failing this test are
//     functionally unsensitizable and form the paper's FUS baseline.
//   - SigmaPi (Lemma 2): the side inputs with lower π-position than the
//     on-path lead must be non-controlling (condition (π3)). Survivors
//     form LP^sup(σ^π); the complement is the identified RD-set.
//   - NonRobust (Definition 5, Schulz et al.): all side inputs must be
//     non-controlling. Survivors form T^sup.
type Criterion uint8

const (
	FS Criterion = iota
	SigmaPi
	NonRobust
)

// String names the criterion as in the paper.
func (cr Criterion) String() string {
	switch cr {
	case FS:
		return "FS"
	case SigmaPi:
		return "sigma^pi"
	case NonRobust:
		return "T"
	}
	return fmt.Sprintf("Criterion(%d)", uint8(cr))
}

// ParseCriterion maps a criterion's wire name back to the criterion:
// "sigma^pi" (also "sigma-pi", and the empty name, σ^π being the paper's
// criterion) or "FS" (also "fs"), the two a heuristic's final pass
// checks.
func ParseCriterion(s string) (Criterion, error) {
	switch s {
	case "", "sigma^pi", "sigma-pi":
		return SigmaPi, nil
	case "FS", "fs":
		return FS, nil
	}
	return 0, fmt.Errorf("unknown criterion %q (want sigma^pi|FS)", s)
}

// sideConstraints appends to dst the pins of gate g whose source gates
// must be asserted non-controlling when the path enters g through pin
// with the given on-path stable value. onPathCtrl reports whether that
// value is the controlling value of g. sort is only consulted for
// SigmaPi.
func (cr Criterion) sideConstraints(dst []int, c *circuit.Circuit, sort *circuit.InputSort, g circuit.GateID, pin int, onPathCtrl bool) []int {
	fanin := c.Fanin(g)
	if len(fanin) == 1 {
		return dst
	}
	if !onPathCtrl {
		// (π2)/(FU2)/(NR2): every side input non-controlling.
		for p := range fanin {
			if p != pin {
				dst = append(dst, p)
			}
		}
		return dst
	}
	switch cr {
	case FS:
		// No constraint in the controlling case.
	case SigmaPi:
		// (π3): low-order side inputs non-controlling.
		pos := sort.Pos[g]
		for p := range fanin {
			if p != pin && pos[p] < pos[pin] {
				dst = append(dst, p)
			}
		}
	case NonRobust:
		for p := range fanin {
			if p != pin {
				dst = append(dst, p)
			}
		}
	}
	return dst
}
