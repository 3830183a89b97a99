package text

import (
	"reflect"
	"testing"
)

func TestWhitespaceTokenizer(t *testing.T) {
	toks := WhitespaceTokenizer{}.Tokenize("Call me Ishmael. Some years ago--never mind")
	texts := make([]string, len(toks))
	for i, tok := range toks {
		texts[i] = tok.Text
	}
	want := []string{"call", "me", "ishmael", "some", "years", "ago", "never", "mind"}
	if !reflect.DeepEqual(texts, want) {
		t.Fatalf("tokens: %v", texts)
	}
	for i, tok := range toks {
		if tok.Offset != int64(i) {
			t.Fatalf("offset %d: %d", i, tok.Offset)
		}
	}
}

func TestWhitespaceEmpty(t *testing.T) {
	if toks := (WhitespaceTokenizer{}).Tokenize("  ... !! "); len(toks) != 0 {
		t.Fatalf("tokens from punctuation: %v", toks)
	}
}

func TestNGramTokenizer(t *testing.T) {
	toks := NGramTokenizer{N: 3}.Tokenize("whale")
	texts := make([]string, len(toks))
	for i, tok := range toks {
		texts[i] = tok.Text
	}
	want := []string{"wha", "hal", "ale"}
	if !reflect.DeepEqual(texts, want) {
		t.Fatalf("ngrams: %v", texts)
	}
	// Short words pass through whole.
	toks = NGramTokenizer{N: 3}.Tokenize("me")
	if len(toks) != 1 || toks[0].Text != "me" {
		t.Fatalf("short word: %v", toks)
	}
}

func TestRegistry(t *testing.T) {
	if _, ok := Lookup("whitespace"); !ok {
		t.Fatal("whitespace tokenizer not registered")
	}
	if _, ok := Lookup("ngram"); !ok {
		t.Fatal("ngram tokenizer not registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("phantom tokenizer")
	}
}

func TestMatchPhrase(t *testing.T) {
	// "white whale" in "the white whale sank"; offsets: white=1, whale=2.
	if !MatchPhrase([][]int64{{1}, {2}}) {
		t.Fatal("adjacent phrase missed")
	}
	if MatchPhrase([][]int64{{1}, {3}}) {
		t.Fatal("gap accepted as phrase")
	}
	if MatchPhrase([][]int64{{5}, {4}}) {
		t.Fatal("reversed order accepted")
	}
	// Multiple candidate starts.
	if !MatchPhrase([][]int64{{0, 7}, {3, 8}, {9}}) {
		t.Fatal("phrase at second start missed")
	}
	if MatchPhrase(nil) {
		t.Fatal("empty phrase matched")
	}
}

func TestMatchProximity(t *testing.T) {
	if !MatchProximity([][]int64{{1}, {4}}, 4) {
		t.Fatal("within-window pair missed")
	}
	if MatchProximity([][]int64{{1}, {5}}, 4) {
		t.Fatal("out-of-window pair accepted")
	}
	// Three tokens scattered; only one combination is tight.
	if !MatchProximity([][]int64{{0, 50}, {52, 90}, {49, 100}}, 5) {
		t.Fatal("tight triple missed")
	}
	if MatchProximity([][]int64{{0}, {10}, {20}}, 5) {
		t.Fatal("loose triple accepted")
	}
	if MatchProximity(nil, 5) {
		t.Fatal("empty proximity matched")
	}
}
