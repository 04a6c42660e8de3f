package fabric

// Sub returns the byte distance a-b; both must be on the same rank.
func (a Addr) Sub(b Addr) int {
	if a.Rank != b.Rank {
		panic("fabric: Addr.Sub across ranks")
	}
	return int(a.VA - b.VA)
}
