package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin-width histogram, matching the presentation used
// by the paper's Figures 3 (10 µs bins), 5/7 (50 µs and 10 µs bins) and
// 9 (1 ms bins).
type Histogram struct {
	// Origin is the left edge of bin 0.
	Origin float64
	// Width is the common bin width (> 0).
	Width float64
	// Counts holds the number of samples per bin.
	Counts []int
	// Total is the number of samples accumulated, including none dropped:
	// samples below Origin are clamped into bin 0 (the study never
	// produces them; the clamp keeps the histogram total).
	Total int
}

// NewHistogram builds a histogram of xs with the given bin width. The
// origin is floor(min/width)*width so bin edges land on multiples of the
// width, mirroring how the paper's figures are binned.
func NewHistogram(xs []float64, width float64) *Histogram {
	if width <= 0 {
		panic("stats: histogram bin width must be positive")
	}
	h := &Histogram{Width: width}
	if len(xs) == 0 {
		return h
	}
	min, max := Min(xs), Max(xs)
	h.Origin = math.Floor(min/width) * width
	nbins := int(math.Floor((max-h.Origin)/width)) + 1
	if nbins < 1 {
		nbins = 1
	}
	h.Counts = make([]int, nbins)
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add accumulates one sample.
func (h *Histogram) Add(x float64) {
	i := int(math.Floor((x - h.Origin) / h.Width))
	if i < 0 {
		i = 0
	}
	for i >= len(h.Counts) {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[i]++
	h.Total++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Origin + (float64(i)+0.5)*h.Width
}

// BinLeft returns the left edge of bin i.
func (h *Histogram) BinLeft(i int) float64 {
	return h.Origin + float64(i)*h.Width
}

// ModeBin returns the index and count of the fullest bin (-1 if empty).
func (h *Histogram) ModeBin() (int, int) {
	best, bestCount := -1, 0
	for i, c := range h.Counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	return best, bestCount
}

// Peak returns the center of the fullest bin, i.e. the histogram's modal
// value (NaN when empty). The paper reads application peaks off Figure 3.
func (h *Histogram) Peak() float64 {
	i, _ := h.ModeBin()
	if i < 0 {
		return math.NaN()
	}
	return h.BinCenter(i)
}

// Render draws an ASCII histogram with at most maxRows bins (the densest
// region is preserved; empty leading/trailing bins are trimmed). unit
// scales the axis labels (e.g. 1e-3 to print milliseconds when samples are
// in seconds) and unitName labels them. A nil histogram — a class no
// sample fell into — renders as empty.
func (h *Histogram) Render(maxRows int, unit float64, unitName string) string {
	if h == nil || h.Total == 0 {
		return "(empty histogram)\n"
	}
	lo, hi := 0, len(h.Counts)
	for lo < hi && h.Counts[lo] == 0 {
		lo++
	}
	for hi > lo && h.Counts[hi-1] == 0 {
		hi--
	}
	stride := 1
	if maxRows > 0 && hi-lo > maxRows {
		stride = (hi - lo + maxRows - 1) / maxRows
	}
	// Merge bins by stride for display.
	type row struct {
		left  float64
		count int
	}
	var rows []row
	for i := lo; i < hi; i += stride {
		c := 0
		for j := i; j < i+stride && j < hi; j++ {
			c += h.Counts[j]
		}
		rows = append(rows, row{left: h.BinLeft(i), count: c})
	}
	maxCount := 0
	for _, r := range rows {
		if r.count > maxCount {
			maxCount = r.count
		}
	}
	var b strings.Builder
	for _, r := range rows {
		barLen := 0
		if maxCount > 0 {
			barLen = r.count * 50 / maxCount
		}
		fmt.Fprintf(&b, "%10.3f %-8s |%-50s| %d\n",
			r.left/unit, unitName, strings.Repeat("#", barLen), r.count)
	}
	return b.String()
}

// CSV renders the histogram as "bin_left,count" lines with the given unit
// scaling, suitable for regenerating the paper's figures in any plotter.
func (h *Histogram) CSV(unit float64) string {
	var b strings.Builder
	b.WriteString("bin_left,count\n")
	for i, c := range h.Counts {
		fmt.Fprintf(&b, "%g,%d\n", h.BinLeft(i)/unit, c)
	}
	return b.String()
}
