package engine

// The random program drawers, for the external tests of this package.
var (
	RandomProgram           = randomProgram
	RandomStratifiedProgram = randomStratifiedProgram
)
