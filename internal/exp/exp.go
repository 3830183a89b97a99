// Package exp is the experiment harness: histogram and percentile helpers
// plus table rendering used by cmd/experiments and the benchmark suite to
// regenerate every table and figure in the paper.
package exp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Histogram accumulates values into logarithmic buckets, like Figure 1's
// axes (decades from 1 byte to 10 GB).
type Histogram struct {
	BucketEdges []float64 // ascending; bucket i covers [edge[i], edge[i+1])
	Counts      []float64
	Weights     []float64 // per-bucket sum of values (for byte-weighted views)
	total       float64
	weightTotal float64
}

// NewDecadeHistogram builds buckets at powers of ten covering [1, 10^decades].
func NewDecadeHistogram(decades int) *Histogram {
	edges := make([]float64, decades+1)
	for i := range edges {
		edges[i] = math.Pow(10, float64(i))
	}
	return &Histogram{
		BucketEdges: edges,
		Counts:      make([]float64, decades),
		Weights:     make([]float64, decades),
	}
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	i := sort.SearchFloat64s(h.BucketEdges, v)
	if i > 0 {
		i--
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.Weights[i] += v
	h.total++
	h.weightTotal += v
}

// Row is one rendered histogram bucket.
type Row struct {
	Low, High                 float64
	Fraction, CumFraction     float64
	ByteFraction, CumByteFrac float64
}

// Rows renders the histogram as fractions and cumulative density — the two
// panels of Figure 1.
func (h *Histogram) Rows() []Row {
	out := make([]Row, len(h.Counts))
	var cum, cumW float64
	for i := range h.Counts {
		f := 0.0
		fw := 0.0
		if h.total > 0 {
			f = h.Counts[i] / h.total
		}
		if h.weightTotal > 0 {
			fw = h.Weights[i] / h.weightTotal
		}
		cum += f
		cumW += fw
		out[i] = Row{
			Low: h.BucketEdges[i], High: h.BucketEdges[i+1],
			Fraction: f, CumFraction: cum,
			ByteFraction: fw, CumByteFrac: cumW,
		}
	}
	return out
}

// Percentile returns the p-th percentile (0-100) of values.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	idx := p / 100 * float64(len(s)-1)
	lo := int(idx)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean returns the arithmetic mean.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Table renders aligned rows for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// HumanBytes formats byte counts for histogram edges.
func HumanBytes(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.0fGB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.0fMB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fkB", v/1e3)
	}
	return fmt.Sprintf("%.0fB", v)
}

// Bar renders a proportional ASCII bar.
func Bar(fraction float64, width int) string {
	n := int(fraction*float64(width) + 0.5)
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}
