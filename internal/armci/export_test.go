package armci

// Lookups only this package's tests use.

// FindRange is Find for an n-byte access: the slice must contain all of
// [addr, addr+n), so a caller that goes on to touch the bytes can never
// overrun it.
func (d *Directory[T]) FindRange(addr Addr, n int) (a *Allocation[T], gr int, ok bool) {
	if s, ok := d.at(addr); ok && addr.VA+int64(n) <= s.Hi {
		return s.V.a, s.V.gr, true
	}
	return nil, 0, false
}

// FindBase locates the allocation whose slice on addr.Rank starts
// exactly at addr.VA.
func (d *Directory[T]) FindBase(addr Addr) *Allocation[T] {
	if s, ok := d.at(addr); ok && s.Lo == addr.VA {
		return s.V.a
	}
	return nil
}
