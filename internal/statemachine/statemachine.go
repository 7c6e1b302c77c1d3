// Package statemachine infers protocol state machines from execution
// traces, the way the paper used Synoptic (§5.1, Fig 3, Fig 13): it
// aggregates instrumented state-transition logs across runs into a
// transition diagram annotated with transition probabilities and the
// fraction of time spent in each state, and mines Synoptic-style temporal
// invariants (AlwaysFollowedBy, NeverFollowedBy, AlwaysPrecedes).
package statemachine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"quiclab/internal/trace"
)

// Trace is one run's state-transition log plus the run's end time (used
// to credit the final state's dwell time).
type Trace struct {
	Events []trace.StateEvent
	End    time.Duration
}

// FromRecorder extracts a Trace from a recorder.
func FromRecorder(r *trace.Recorder, end time.Duration) Trace {
	return Trace{Events: r.States, End: end}
}

// Path returns the sequence of states visited, starting with the first
// transition's From state (nil for a trace with no transitions).
func (t Trace) Path() []string {
	if len(t.Events) == 0 {
		return nil
	}
	path := make([]string, 0, len(t.Events)+1)
	path = append(path, t.Events[0].From)
	for _, e := range t.Events {
		path = append(path, e.To)
	}
	return path
}

// Model is an inferred state machine.
type Model struct {
	states      []string
	transitions map[string]map[string]int
	outTotals   map[string]int
	timeIn      map[string]time.Duration
	totalTime   time.Duration
	traces      int
	initial     map[string]int
}

// Infer builds a model from one or more traces.
func Infer(traces []Trace) *Model {
	m := &Model{
		transitions: make(map[string]map[string]int),
		outTotals:   make(map[string]int),
		timeIn:      make(map[string]time.Duration),
		initial:     make(map[string]int),
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		if len(tr.Events) == 0 {
			continue
		}
		m.traces++
		m.initial[tr.Events[0].From]++
		cur := tr.Events[0].From
		last := time.Duration(0)
		seen[cur] = true
		for _, e := range tr.Events {
			seen[e.To] = true
			if m.transitions[e.From] == nil {
				m.transitions[e.From] = make(map[string]int)
			}
			m.transitions[e.From][e.To]++
			m.outTotals[e.From]++
			m.timeIn[cur] += e.T - last
			m.totalTime += e.T - last
			cur, last = e.To, e.T
		}
		if tr.End > last {
			m.timeIn[cur] += tr.End - last
			m.totalTime += tr.End - last
		}
	}
	for s := range seen {
		m.states = append(m.states, s)
	}
	sort.Strings(m.states)
	return m
}

// States returns the observed states, sorted.
func (m *Model) States() []string { return append([]string(nil), m.states...) }

// TransitionCount returns how many times from->to was observed.
func (m *Model) TransitionCount(from, to string) int {
	return m.transitions[from][to]
}

// TransitionProb returns the empirical probability of moving to `to`
// given a transition out of `from` (0 if never observed).
func (m *Model) TransitionProb(from, to string) float64 {
	total := m.outTotals[from]
	if total == 0 {
		return 0
	}
	return float64(m.transitions[from][to]) / float64(total)
}

// TimeFraction returns the fraction of total run time spent in state s
// (the red numbers in the paper's Fig 13).
func (m *Model) TimeFraction(s string) float64 {
	if m.totalTime == 0 {
		return 0
	}
	return float64(m.timeIn[s]) / float64(m.totalTime)
}

// TimeIn returns the absolute time spent in state s.
func (m *Model) TimeIn(s string) time.Duration { return m.timeIn[s] }

// DOT renders the model as a Graphviz digraph: nodes are labelled with
// time-in-state fractions, edges with transition probabilities.
func (m *Model) DOT() string {
	var b strings.Builder
	b.WriteString("digraph statemachine {\n  rankdir=TB;\n  node [shape=box, style=rounded];\n")
	for _, s := range m.states {
		fmt.Fprintf(&b, "  %q [label=\"%s\\n%.1f%%\"];\n", s, s, 100*m.TimeFraction(s))
	}
	for _, from := range m.states {
		tos := make([]string, 0, len(m.transitions[from]))
		for to := range m.transitions[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			fmt.Fprintf(&b, "  %q -> %q [label=\"%.2f\"];\n", from, to, m.TransitionProb(from, to))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders a compact ASCII table of states and transitions.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "state machine (%d traces, %v total)\n", m.traces, m.totalTime)
	for _, s := range m.states {
		fmt.Fprintf(&b, "  %-26s %6.2f%% of time\n", s, 100*m.TimeFraction(s))
		tos := make([]string, 0, len(m.transitions[s]))
		for to := range m.transitions[s] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			fmt.Fprintf(&b, "    -> %-23s p=%.2f (n=%d)\n", to, m.TransitionProb(s, to), m.transitions[s][to])
		}
	}
	return b.String()
}

// StateDelta is the change in one state's dwell fraction between two
// models.
type StateDelta struct {
	State string
	FracA float64
	FracB float64
	Delta float64 // FracB - FracA
}

// Diff compares time-in-state fractions between two models, sorted by
// absolute change (largest first). This is the comparison behind the
// paper's Fig 13 analysis: "the MotoG run spends 58% in
// ApplicationLimited vs 7% on desktop".
func Diff(a, b *Model) []StateDelta {
	seen := map[string]bool{}
	var out []StateDelta
	add := func(s string) {
		if seen[s] {
			return
		}
		seen[s] = true
		fa, fb := a.TimeFraction(s), b.TimeFraction(s)
		out = append(out, StateDelta{State: s, FracA: fa, FracB: fb, Delta: fb - fa})
	}
	for _, s := range a.States() {
		add(s)
	}
	for _, s := range b.States() {
		add(s)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Delta, out[j].Delta
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return out[i].State < out[j].State
	})
	return out
}

func (d StateDelta) String() string {
	return fmt.Sprintf("%-26s %5.1f%% -> %5.1f%% (%+.1f)", d.State, 100*d.FracA, 100*d.FracB, 100*d.Delta)
}

// InvariantKind is a Synoptic-style temporal invariant type.
type InvariantKind int

// The three invariant families Synoptic mines.
const (
	AlwaysFollowedBy InvariantKind = iota // every a is eventually followed by b
	NeverFollowedBy                       // no a is ever followed by b
	AlwaysPrecedes                        // every b has an earlier a
)

func (k InvariantKind) String() string {
	switch k {
	case AlwaysFollowedBy:
		return "AFby"
	case NeverFollowedBy:
		return "NFby"
	case AlwaysPrecedes:
		return "AP"
	}
	return "?"
}

// Invariant is one mined temporal property over states A and B.
type Invariant struct {
	Kind InvariantKind
	A, B string
}

func (iv Invariant) String() string {
	return fmt.Sprintf("%s %s %s", iv.A, iv.Kind, iv.B)
}

// MineInvariants mines AFby/NFby/AP invariants that hold over every
// supplied state path (a path is a sequence of visited states, e.g. from
// Trace.Path). Only pairs of states that both occur
// somewhere are reported, and A != B.
func MineInvariants(paths [][]string) []Invariant {
	occurs := map[string]bool{}
	for _, p := range paths {
		for _, s := range p {
			occurs[s] = true
		}
	}
	var states []string
	for s := range occurs {
		states = append(states, s)
	}
	sort.Strings(states)

	var out []Invariant
	for _, a := range states {
		for _, b := range states {
			if a == b {
				continue
			}
			afby, nfby, ap := true, true, true
			aSeen := false
			for _, p := range paths {
				// AFby: every a index has a later b.
				// NFby: no b after any a.
				// AP: before every b there is an earlier a.
				lastA := -1
				seenA := false
				for i, s := range p {
					if s == a {
						seenA = true
						aSeen = true
						lastA = i
					}
					if s == b {
						if lastA >= 0 {
							nfby = false
						}
						if !seenA {
							ap = false
						}
					}
				}
				if lastA >= 0 {
					followed := false
					for i := lastA + 1; i < len(p); i++ {
						if p[i] == b {
							followed = true
							break
						}
					}
					// Every earlier a is followed by this-or-later b
					// occurrences; only the final a can lack one.
					if !followed {
						afby = false
					}
				}
			}
			if !aSeen {
				continue
			}
			if afby {
				out = append(out, Invariant{AlwaysFollowedBy, a, b})
			}
			if nfby {
				out = append(out, Invariant{NeverFollowedBy, a, b})
			}
			if ap {
				out = append(out, Invariant{AlwaysPrecedes, a, b})
			}
		}
	}
	return out
}

// HoldsInvariant reports whether the given invariant holds over the
// supplied paths (exposed for tests and exploratory analysis).
func HoldsInvariant(iv Invariant, paths [][]string) bool {
	for _, got := range MineInvariants(paths) {
		if got == iv {
			return true
		}
	}
	return false
}
