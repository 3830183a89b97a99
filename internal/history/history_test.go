package history

import (
	"fmt"
	"strings"
	"testing"
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
