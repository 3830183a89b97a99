// Package text provides tokenizers and match predicates for the TEXT index
// (Appendix B): token matching, token prefix matching, phrase search and
// proximity search over per-token offset lists.
package text

import (
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Token is one tokenizer output: the normalized token text and its offset,
// expressed as the number of tokens from the beginning of the field (App. B).
type Token struct {
	Text   string
	Offset int64
}

// Tokenizer turns a text field into a token stream. Tokenizers are pluggable
// and referenced by name from index metadata.
type Tokenizer interface {
	// Name identifies the tokenizer in index options.
	Name() string
	// Tokenize splits and normalizes text. The caller owns the slice.
	Tokenize(text string) []Token
}

var (
	tokMu      sync.RWMutex
	tokenizers = map[string]Tokenizer{}
)

// Register installs a tokenizer for use by name in index options.
func Register(t Tokenizer) {
	tokMu.Lock()
	defer tokMu.Unlock()
	tokenizers[t.Name()] = t
}

// Lookup resolves a registered tokenizer.
func Lookup(name string) (Tokenizer, bool) {
	tokMu.RLock()
	defer tokMu.RUnlock()
	t, ok := tokenizers[name]
	return t, ok
}

func init() {
	Register(WhitespaceTokenizer{})
	Register(NGramTokenizer{N: 3})
}

// WhitespaceTokenizer lowercases and splits on any non-letter, non-digit
// run — the "whitespace tokenization" used for the Table 2 measurements.
type WhitespaceTokenizer struct{}

// Name implements Tokenizer.
func (WhitespaceTokenizer) Name() string { return "whitespace" }

// Tokenize implements Tokenizer.
func (WhitespaceTokenizer) Tokenize(text string) []Token {
	var out []Token
	var offset int64
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	for _, f := range fields {
		out = append(out, Token{Text: f, Offset: offset})
		offset++
	}
	return out
}

// NGramTokenizer emits every N-character gram of each whitespace token,
// supporting n-gram search with only n key entries rather than the O(n^2)
// keys of all-substring indexing (§8.1). Grams share their word's offset.
type NGramTokenizer struct {
	N int
}

// Name implements Tokenizer.
func (t NGramTokenizer) Name() string { return "ngram" }

// Tokenize implements Tokenizer.
func (t NGramTokenizer) Tokenize(text string) []Token {
	n := t.N
	if n <= 0 {
		n = 3
	}
	var out []Token
	for _, w := range (WhitespaceTokenizer{}).Tokenize(text) {
		runes := []rune(w.Text)
		if len(runes) <= n {
			out = append(out, w)
			continue
		}
		for i := 0; i+n <= len(runes); i++ {
			out = append(out, Token{Text: string(runes[i : i+n]), Offset: w.Offset})
		}
	}
	return out
}

// MatchPhrase reports whether the offset lists (one per consecutive phrase
// token) contain positions p, p+1, ..., p+n-1 for some p: the tokens appear
// adjacently in order (App. B).
func MatchPhrase(offsetLists [][]int64) bool {
	if len(offsetLists) == 0 {
		return false
	}
	for _, start := range offsetLists[0] {
		ok := true
		for i := 1; i < len(offsetLists); i++ {
			if !containsOffset(offsetLists[i], start+int64(i)) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// MatchProximity reports whether one position from every list can be chosen
// with max-min < distance: all tokens appear within a window of the given
// width (App. B).
func MatchProximity(offsetLists [][]int64, distance int64) bool {
	if len(offsetLists) == 0 {
		return false
	}
	idx := make([]int, len(offsetLists))
	for {
		lo, hi := int64(1<<62), int64(-1<<62)
		loList := -1
		for i, offs := range offsetLists {
			if idx[i] >= len(offs) {
				return false
			}
			v := offs[idx[i]]
			if v < lo {
				lo, loList = v, i
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo < distance {
			return true
		}
		// Advance the list holding the minimum; classic k-way window sweep.
		idx[loList]++
	}
}

func containsOffset(offs []int64, v int64) bool {
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= v })
	return i < len(offs) && offs[i] == v
}
