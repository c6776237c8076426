package nfa

// The antichain kernels with an explicit simulation-seeding cap, so the
// external tests can run them unseeded (cap 0) or fully seeded.
var (
	IncludedAntichainCap  = includedAntichain
	UniversalAntichainCap = universalAntichain
)
