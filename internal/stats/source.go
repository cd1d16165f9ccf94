package stats

import _ "embed"

// HistogramSource is the source of histogram.go. Generated LOC checkers
// splice it in as the histogram behind their distribution formulas.
//
//go:embed histogram.go
var HistogramSource string
