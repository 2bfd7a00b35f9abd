package engine

// The random program drawers, for the external tests of this package.
var (
	RandomProgram           = randomProgram
	RandomStratifiedProgram = randomStratifiedProgram
)

// PlanMissHook is the planner's memo-miss hook, for the external tests of
// this package: set *PlanMissHook and restore it to nil.
var PlanMissHook = &testHookPlanMiss
