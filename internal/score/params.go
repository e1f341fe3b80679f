// Package score implements the k-SIR representativeness scoring of §3.2:
// topic-specific semantic scores R_i (weighted word coverage with
// information-entropy word weights), topic-specific time-critical influence
// scores I_{i,t} (probabilistic coverage over in-window references), their
// combination f(S, x), and incremental candidate-set state that evaluates
// marginal gains Δ(e|S) in O(|V_e| + |I_t(e)|) per query topic.
//
// A Scorer belongs to its window's writer; concurrent readers of a
// published window version score through a View of it, by slot.
package score

import "fmt"

// Params are the scoring trade-off factors of Equation 2.
type Params struct {
	// Lambda ∈ [0,1] trades semantic against influence score
	// (λ=1: pure word coverage; λ=0: pure influence).
	Lambda float64
	// Eta > 0 rescales the influence score to the semantic score's range.
	// The paper uses 20 for AMiner/Reddit and 200 for Twitter.
	Eta float64
}

// DefaultParams returns the paper's default λ=0.5, η=20.
func DefaultParams() Params { return Params{Lambda: 0.5, Eta: 20} }

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.Lambda < 0 || p.Lambda > 1 {
		return fmt.Errorf("score: lambda must be in [0,1], got %v", p.Lambda)
	}
	if p.Eta <= 0 {
		return fmt.Errorf("score: eta must be positive, got %v", p.Eta)
	}
	return nil
}

// inflFactor returns (1−λ)/η, the influence multiplier of Equation 2.
func (p Params) inflFactor() float64 { return (1 - p.Lambda) / p.Eta }

// combine returns λ·sem + (1−λ)/η·infl, Equation 2's mix of a semantic and
// an influence term. Each product is rounded before the sum (an explicit
// float64 conversion), so no platform fuses them into a multiply-add and
// every CPU computes the same bits.
func (p Params) combine(sem, infl float64) float64 {
	return float64(p.Lambda*sem) + float64(p.inflFactor()*infl)
}
