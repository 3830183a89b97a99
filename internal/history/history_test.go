package history

import (
	"fmt"
	"strings"
	"testing"

	"recordlayer/internal/metadata"
)

func render(ops []Op) string {
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintln(&b, op)
	}
	return b.String()
}

// TestGenerateIsAFunctionOfTheSeed: the same seed draws the same history,
// and a shorter history is a prefix of a longer one, which is what lets a
// failing seed be re-run truncated.
func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := render(Generate(seed, 300)), render(Generate(seed, 300))
		if a != b {
			t.Fatalf("seed %d drew two histories", seed)
		}
		if short := render(Generate(seed, 120)); !strings.HasPrefix(a, short) {
			t.Fatalf("seed %d: 120 ops are not a prefix of 300", seed)
		}
		if render(Generate(seed+1, 300)) == a {
			t.Fatalf("seeds %d and %d drew the same history", seed, seed+1)
		}
	}
}

// TestIllegalEvolutionsAreRefused: over 300 seeds, each drawn legal successor
// is accepted, and its mutant, one step turned illegal, is refused with the
// rule it breaks named; every mutant kind is drawn.
func TestIllegalEvolutionsAreRefused(t *testing.T) {
	var drawn [NumMutants]int
	for seed := int64(1); seed <= 300; seed++ {
		e := IllegalEvolution(seed)
		if err := metadata.ValidateEvolution(e.Prev, e.Legal); err != nil {
			t.Fatalf("seed %d: the legal successor is refused: %v", seed, err)
		}
		err := metadata.ValidateEvolution(e.Prev, e.Illegal)
		if err == nil || !strings.Contains(err.Error(), e.Refusal) {
			t.Errorf("seed %d (%v): ValidateEvolution = %v, want an error saying %q", seed, e.Kind, err, e.Refusal)
		}
		drawn[e.Kind]++
	}
	for kind, n := range drawn {
		if n == 0 {
			t.Errorf("no seed drew the mutant %q", Mutant(kind))
		}
	}
	t.Logf("mutants drawn: %v", drawn)
}
