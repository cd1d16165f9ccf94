// Package locrt is the runtime of LOC assertion checking: the stack VM, the
// streaming evaluator with witness and density capture, the assertion
// report, and the driver of a generated checker. It imports only the
// standard library, so the in-process runner (package loc) and every
// locgen-generated checker run this one implementation: a generated checker
// is this package's own source, spliced into package main with a literal
// Spec.
package locrt

import "embed"

// Source holds the runtime files a generated checker is built from: every
// non-test file of this package except this one.
//
//go:embed vm.go eval.go report.go driver.go
var Source embed.FS
