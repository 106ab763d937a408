package sim

// Test fixtures shared with the external sim_test package.
var (
	HotProfile   = hotProfile
	ColdProfile  = coldProfile
	NewPIManager = newPIManager
)
