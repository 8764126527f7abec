// The benchmark is a module of its own so that building, vetting and
// testing the repository root never compiles it, and so that its build is
// self-contained under benchmark/. The module path sits below "repro", which
// is what lets it import repro/internal/... through the replace directive.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
