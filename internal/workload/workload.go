// Package workload synthesizes the datasets the paper's evaluation relies
// on but does not publish: the CloudKit record store size population
// (Figure 1), a Moby-Dick-like document corpus (Table 2), and CloudKit-style
// operation mixes (§8.2, §2). Each generator documents how it was calibrated
// against the statistics the paper reports.
//
// It also holds the two multi-tenant harnesses that CI gates on. The
// noisy-neighbor experiment (RunNoisyNeighbor) describes each phase as data —
// its servers, how their governors get limits, an optional index build and an
// optional side loop — and runs every phase through one driver; its numbers
// are wall-clock. The chaos run (RunChaos) churns leases under injected
// faults and is a function of its seed alone; concurrent transactions, lost
// and ghost writes under the same faults are the root package's model test's
// to find. A plain save in the noisy-neighbor harness is one transaction
// body, openAndSave.
package workload

import (
	"math"
	"math/rand"
	"strings"
)

// StoreSizes draws n record store sizes (bytes) mimicking Figure 1: the
// distribution is a mixture dominated by tiny stores (a substantial majority
// under 1 kB) with a heavy log-normal tail that holds most of the bytes.
func StoreSizes(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		switch {
		case rng.Float64() < 0.70:
			// Tiny stores: a few records or none; log-normal centered ~100 B.
			out[i] = math.Exp(rng.NormFloat64()*1.3 + math.Log(100))
		case rng.Float64() < 0.8:
			// Mid-size stores centered ~50 kB.
			out[i] = math.Exp(rng.NormFloat64()*1.8 + math.Log(50_000))
		default:
			// Large tail centered ~5 MB with high variance: most bytes.
			out[i] = math.Exp(rng.NormFloat64()*2.2 + math.Log(5_000_000))
		}
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// Document is one synthetic text document.
type Document struct {
	ID   int
	Text string
}

// CorpusStats summarizes a generated corpus against Table 2's targets.
type CorpusStats struct {
	Documents          int
	MeanBytes          float64
	MeanUniqueTokens   float64
	MeanOccurrences    float64
	MeanUniqueTokenLen float64
}

// Corpus generates documents calibrated to the paper's Moby Dick
// measurements (Table 2): 233 documents of ~5 kB, ~431.8 unique tokens per
// document appearing ~2.1 times each with a mean unique-token length of
// ~7.8 characters. A Zipfian rank-frequency distribution over a synthetic
// vocabulary reproduces those statistics: frequent words are short (so the
// occurrence-weighted length stays low enough for 5 kB documents) while the
// long tail of rare words pulls the unique-token length up.
func Corpus(nDocs int, seed int64) []Document {
	rng := rand.New(rand.NewSource(seed))
	vocab := buildVocabulary(rng, 12_000)
	zipf := rand.NewZipf(rng, 1.05, 1.0, uint64(len(vocab)-1))
	docs := make([]Document, nDocs)
	for d := range docs {
		var sb strings.Builder
		// ~900 token occurrences yield ~430 unique tokens under this skew.
		tokens := 850 + rng.Intn(120)
		for i := 0; i < tokens; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(vocab[zipf.Uint64()])
		}
		docs[d] = Document{ID: d, Text: sb.String()}
	}
	return docs
}

// buildVocabulary creates words whose length grows with rank: the most
// common words are 2-4 characters, the rare tail up to 14 — matching
// natural-language length/frequency correlation.
func buildVocabulary(rng *rand.Rand, n int) []string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	seen := make(map[string]bool, n)
	vocab := make([]string, 0, n)
	for len(vocab) < n {
		rank := len(vocab)
		var length int
		switch {
		case rank < 30:
			length = 2 + rng.Intn(3)
		case rank < 300:
			length = 4 + rng.Intn(4)
		case rank < 3000:
			length = 6 + rng.Intn(5)
		default:
			length = 8 + rng.Intn(7)
		}
		b := make([]byte, length)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		w := string(b)
		if !seen[w] {
			seen[w] = true
			vocab = append(vocab, w)
		}
	}
	return vocab
}

// AnalyzeCorpus computes the Table 2 comparison statistics.
func AnalyzeCorpus(docs []Document) CorpusStats {
	var s CorpusStats
	s.Documents = len(docs)
	var bytesSum, uniqueSum, occSum, lenSum float64
	var lenCount float64
	for _, d := range docs {
		bytesSum += float64(len(d.Text))
		counts := map[string]int{}
		for _, w := range strings.Fields(d.Text) {
			counts[w]++
		}
		uniqueSum += float64(len(counts))
		total := 0
		for w, c := range counts {
			total += c
			lenSum += float64(len(w))
			lenCount++
		}
		occSum += float64(total) / float64(len(counts))
	}
	n := float64(len(docs))
	s.MeanBytes = bytesSum / n
	s.MeanUniqueTokens = uniqueSum / n
	s.MeanOccurrences = occSum / n
	s.MeanUniqueTokenLen = lenSum / lenCount
	return s
}

// NoteBody produces a compressible text body of roughly n bytes for record
// payloads in the operation-mix experiments.
func NoteBody(rng *rand.Rand, n int) string {
	words := []string{"meeting", "notes", "remember", "follow", "up", "with",
		"team", "about", "the", "quarterly", "plan", "and", "sync", "device",
		"records", "update", "schedule", "review", "draft", "final"}
	var sb strings.Builder
	for sb.Len() < n {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(words[rng.Intn(len(words))])
	}
	return sb.String()
}

// TxnSizeMix draws per-transaction record counts and sizes shaped so that
// simulated CloudKit transactions land near the paper's §2 numbers: median
// ≈7 kB and p99 ≈36 kB. Transactions write ~8.5 records on average (§8.2).
type TxnSpec struct {
	RecordSizes []int
}

// TxnMix generates n transaction specs.
func TxnMix(n int, seed int64) []TxnSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]TxnSpec, n)
	for i := range out {
		// Records per transaction: geometric-ish around 8.5 (§8.2).
		records := 1 + rng.Intn(16)
		sizes := make([]int, records)
		for j := range sizes {
			// Log-normal record payloads centered ~500 B with a heavy tail.
			v := int(math.Exp(rng.NormFloat64()*0.9 + math.Log(500)))
			if v < 32 {
				v = 32
			}
			if v > 30_000 {
				v = 30_000
			}
			sizes[j] = v
		}
		out[i] = TxnSpec{RecordSizes: sizes}
	}
	return out
}
