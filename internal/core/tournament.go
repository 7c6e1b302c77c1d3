// The CC tournament: every registered congestion-control algorithm
// competes against every other (self-pairings included) over a shared
// bottleneck, and each pairing's bandwidth split is scored with Jain's
// fairness index plus a Welch test on the per-round throughputs. The
// result is an N x N heatmap — the registry analogue of the paper's
// Table 4, asking not "does QUIC beat TCP" but "which control laws
// coexist and which starve each other".
package core

import (
	"fmt"
	"io"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/heatmap"
	"quiclab/internal/stats"
)

// TournamentCondition is one shared-bottleneck environment a bracket
// runs under: a label and the path its pairings share.
type TournamentCondition struct {
	Name string
	Scenario
}

// tournamentConditions picks the bracket environments: quick mode runs
// only the paper's Table 4 condition; full mode adds a deep buffer
// (where delay-based Vegas should suffer against loss-based peers) and
// a faster link.
func tournamentConditions(o Options) []TournamentCondition {
	base := TournamentCondition{"5Mbps/36ms/30KB", table4Path}
	if o.Quick {
		return []TournamentCondition{base}
	}
	return []TournamentCondition{
		base,
		{"5Mbps/36ms/120KB deep buffer", Scenario{RateMbps: 5, QueueBytes: 120 << 10}},
		{"20Mbps/36ms/60KB", Scenario{RateMbps: 20, QueueBytes: 60 << 10}},
	}
}

// TournamentPayload is a tournament cell's value: which algorithms
// competed, under which condition, and the bandwidth each arm averaged.
// It names its pairing so a restore can refuse another pairing's value.
type TournamentPayload struct {
	Cond  string    `json:"cond"`
	Algos []string  `json:"algos"`
	Tput  []float64 `json:"tput"`
}

// wellFormed rejects a payload that is not one two-arm pairing.
func (p TournamentPayload) wellFormed() error {
	if len(p.Algos) != 2 || len(p.Tput) != 2 {
		return fmt.Errorf("tournament payload has %d algos / %d tputs, want 2/2",
			len(p.Algos), len(p.Tput))
	}
	return nil
}

// TournamentPair aggregates one unordered algorithm pairing: per-round
// mean throughput of each arm.
type TournamentPair struct {
	A, B  string
	TputA []float64 // arm A's per-round Mbps
	TputB []float64
}

// MeanA is arm A's throughput averaged over rounds.
func (p *TournamentPair) MeanA() float64 { return stats.Mean(p.TputA) }

// MeanB is arm B's throughput averaged over rounds.
func (p *TournamentPair) MeanB() float64 { return stats.Mean(p.TputB) }

// Jain is the mean over rounds of the per-round two-flow Jain index
// (a+b)^2 / 2(a^2+b^2): 1.0 is a perfect split, 0.5 is total
// starvation of one side. Rounds where both arms moved zero bytes
// count as fair (neither starved the other).
func (p *TournamentPair) Jain() float64 {
	if len(p.TputA) == 0 {
		return 0
	}
	sum := 0.0
	for i := range p.TputA {
		a, b := p.TputA[i], p.TputB[i]
		den := 2 * (a*a + b*b)
		if den == 0 {
			sum++
			continue
		}
		sum += (a + b) * (a + b) / den
	}
	return sum / float64(len(p.TputA))
}

// Welch reports whether the two arms' per-round throughputs differ
// significantly (p < 0.01). Too few rounds for the test = not
// significant.
func (p *TournamentPair) Welch() (pval float64, significant bool) {
	w, err := stats.Welch(p.TputA, p.TputB)
	if err != nil {
		return 1, false
	}
	return w.P, w.P < 0.01
}

// TournamentBracket is one condition's full set of pairings.
type TournamentBracket struct {
	Condition TournamentCondition
	Algos     []string
	Pairs     []*TournamentPair // all i <= j pairings, i-major order
}

// pairAt returns the bracket's pair for unordered (a, b), or nil.
func (b *TournamentBracket) pairAt(a1, a2 string) *TournamentPair {
	for _, p := range b.Pairs {
		if (p.A == a1 && p.B == a2) || (p.A == a2 && p.B == a1) {
			return p
		}
	}
	return nil
}

// RunTournament enqueues on m every unordered pairing of algos
// (including self-pairings) under every condition: one cell per
// (condition, pair, round), each simulating both arms as QUIC flows on
// one shared bottleneck; the cell's Result describes arm A. A cell's
// value is a self-describing TournamentPayload, so a killed sweep
// resumes byte-identically. The brackets' throughputs are filled when
// m's finalizers run.
func RunTournament(m *Matrix, algos []string, rounds int, dur time.Duration) []TournamentBracket {
	conds := tournamentConditions(m.o)
	brackets := make([]TournamentBracket, len(conds))
	for ci, cond := range conds {
		brackets[ci] = TournamentBracket{Condition: cond, Algos: algos}
		for i := 0; i < len(algos); i++ {
			for j := i; j < len(algos); j++ {
				pair := &TournamentPair{
					A:     algos[i],
					B:     algos[j],
					TputA: make([]float64, rounds),
					TputB: make([]float64, rounds),
				}
				brackets[ci].Pairs = append(brackets[ci].Pairs, pair)
				// Distinct labels keep self-pairings' flows apart in traces
				// and payloads.
				arms := []FairArm{
					{Proto: QUIC, CC: pair.A, Label: pair.A + "/a"},
					{Proto: QUIC, CC: pair.B, Label: pair.B + "/b"},
				}
				// A restored payload for another pairing is rejected (the
				// cell re-runs); the zero payload of a cell that panicked
				// leaves its round at zero.
				fits := func(p TournamentPayload) error {
					if err := p.wellFormed(); err != nil {
						return err
					}
					if p.Algos[0] != pair.A || p.Algos[1] != pair.B {
						return fmt.Errorf("payload is for %v, cell wants %s vs %s", p.Algos, pair.A, pair.B)
					}
					return nil
				}
				outs := make([]TournamentPayload, rounds)
				addFairness(m, outs, fits, cond.Scenario, arms, dur, func(flows []FairFlow) TournamentPayload {
					return TournamentPayload{
						Cond:  cond.Name,
						Algos: []string{pair.A, pair.B},
						Tput:  []float64{flows[0].Throughput, flows[1].Throughput},
					}
				})
				m.Defer(func() {
					for r, p := range outs {
						if fits(p) == nil {
							pair.TputA[r], pair.TputB[r] = p.Tput[0], p.Tput[1]
						}
					}
				})
			}
		}
	}
	return brackets
}

// jainFormat renders a heatmap cell as the pairing's Jain index, with
// "*" marking a significant throughput difference between the arms —
// a fair-looking split can still be a consistent, significant bias.
func jainFormat(c heatmap.Cell) string {
	s := fmt.Sprintf("%.3f", c.Value)
	if c.Significant {
		s += "*"
	}
	return s
}

// RenderTournament writes one bracket as an N x N Jain heatmap plus
// per-pairing throughput lines.
func RenderTournament(w io.Writer, b TournamentBracket) {
	title := fmt.Sprintf("CC tournament, shared bottleneck %s (Jain index, * = significant Welch diff):",
		b.Condition.Name)
	hm := heatmap.New(title, "cc", b.Algos, b.Algos)
	hm.Format = jainFormat
	for i, a1 := range b.Algos {
		for j, a2 := range b.Algos {
			p := b.pairAt(a1, a2)
			if p == nil || len(p.TputA) == 0 {
				continue
			}
			_, sig := p.Welch()
			hm.Set(i, j, p.Jain(), sig)
		}
	}
	fmt.Fprint(w, hm.Render())
	fmt.Fprintln(w, "pairings (mean Mbps per arm):")
	for _, p := range b.Pairs {
		if len(p.TputA) == 0 {
			continue
		}
		pv, sig := p.Welch()
		mark := ""
		if sig {
			mark = " *"
		}
		fmt.Fprintf(w, "  %-8s vs %-8s  %5.2f / %5.2f  Jain %.3f  p=%.3f%s\n",
			p.A, p.B, p.MeanA(), p.MeanB(), p.Jain(), pv, mark)
	}
}

// tournament is the experiment body: full registry, all pairs.
func tournament(m *Matrix, o Options, w io.Writer) {
	rounds := o.Rounds
	dur := 30 * time.Second
	if o.Quick {
		dur = 8 * time.Second
	}
	algos := cc.Algorithms()
	brackets := RunTournament(m, algos, rounds, dur)
	m.Defer(func() {
		fmt.Fprintf(w, "%d algorithms (%d pairings each incl. self-play), %d rounds x %v per pairing\n",
			len(algos), len(algos)*(len(algos)+1)/2, rounds, dur)
		for _, b := range brackets {
			fmt.Fprintln(w)
			RenderTournament(w, b)
		}
		fmt.Fprintln(w, "\n(self-pairings calibrate the diagonal: a control law unfair to itself")
		fmt.Fprintln(w, " cannot be blamed only on its opponent. Paper's Table 4 is the cubic-row")
		fmt.Fprintln(w, " analogue of this bracket vs TCP.)")
	})
}
