package trace

// PendingRounds returns the number of rounds o holds unreleased.
func PendingRounds(o *Orderer) int { return len(o.index) + len(o.queue) }

// InsertionMax is the largest round the Orderer sorts by insertion.
const InsertionMax = insertionMax

// SortCanonical sorts one round as the Orderer does and reports whether
// the sort took scratch space, which only its radix path does.
func SortCanonical(evs []Event) (sorted []Event, radix bool) {
	var scratch []Event
	sorted = sortCanonical(evs, &scratch)
	return sorted, scratch != nil
}
