package trace

// PendingRounds returns the number of rounds o holds unreleased.
func PendingRounds(o *Orderer) int { return len(o.index) + len(o.queue) }
