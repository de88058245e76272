package cache

// The oracle and the plan dealer, for the external test package (which can
// import perfmodel without an import cycle).
var (
	BeladyFetches = beladyFetches
	DealEpochs    = dealEpochs
)
