package loc

import "nepdvs/internal/loc/locrt"

// These types live in the runtime package that generated checkers share;
// the aliases keep them part of the loc API.
type (
	Binding        = locrt.Binding
	Violation      = locrt.Violation
	Density        = locrt.Density
	CheckResult    = locrt.CheckResult
	RunnerOptions  = locrt.RunnerOptions
	ReportAnalysis = locrt.ReportAnalysis
	FormulaReport  = locrt.FormulaReport
	Report         = locrt.Report
)

// ReportSchema versions the assertion-report JSON layout.
const ReportSchema = locrt.ReportSchema

// BuildReport assembles the assertion report for a set of formula results.
func BuildReport(results []Result) *Report {
	rep := &Report{Schema: ReportSchema, Formulas: make([]FormulaReport, 0, len(results))}
	for _, r := range results {
		rep.Formulas = append(rep.Formulas, r.outcome().Section(StaticAnalysis(r.Formula)))
	}
	return rep
}
