package hitset

// EnumerateADCParallelForTest bypasses the Workers dispatch of
// EnumerateADC so tests can force the worker pool at any worker count —
// including 1, and on instances small enough that the auto heuristic
// would pick the sequential recursion.
var EnumerateADCParallelForTest = enumerateADCParallel

// ClampWorkersForTest exposes the Options.Workers bound: the field is
// client-reachable through dcserved mine requests, so tests pin that an
// absurd value cannot translate into goroutines.
var ClampWorkersForTest = clampWorkers
