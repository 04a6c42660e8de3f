package mpi

// The datatype flatten cache. MPICH-class MPI implementations do not
// re-walk a derived datatype's typemap on every use: the first use
// flattens the type into a dense (offset, length) run list that every
// later pack, unpack, span check, and segment count reads directly.
// This file is the simulator's version of that optimization. Each
// noncontiguous datatype lazily builds one Flat — a value-typed
// []Segment plus cached Size/Span/NumSegs — and memoizes it on the
// type, so the closure-odometer enumeration in Segments runs at most
// once per datatype instance. Iterating f.Segs is allocation-free, and
// the pack/unpack kernels in pack.go are plain copy loops over it.
//
// The memo is a plain field rather than a sync.Once because a datatype
// belongs to one job and one rank of a job runs at a time: the engine
// switches ranks by coroutine hand-off (iter.Pull), which orders the
// lazy build before every later read. Jobs that run side by side on
// different host threads (DESIGN.md, "Figure sweeps") share no
// datatype.

// Segment is one contiguous run of a flattened datatype, relative to
// the base address.
type Segment struct {
	Off, N int
}

// Flat is the flattened form of a datatype: every contiguous run in
// ascending enumeration order, with the aggregate properties cached.
type Flat struct {
	// Segs holds every contiguous run. Range over it directly for
	// allocation-free iteration.
	Segs []Segment

	size int
	span int
}

// flattener is implemented by datatypes that memoize their Flat.
type flattener interface {
	flat() *Flat
}

// Flatten returns the flattened form of t, memoized on the datatype
// when it supports caching (all noncontiguous types built by this
// package do) and built fresh otherwise.
func Flatten(t Datatype) *Flat {
	if f, ok := t.(flattener); ok {
		return f.flat()
	}
	return buildFlat(t)
}

// buildFlat enumerates t's segments once into a Flat.
func buildFlat(t Datatype) *Flat {
	f := &Flat{Segs: make([]Segment, 0, t.NumSegs())}
	t.Segments(func(off, n int) {
		f.Segs = append(f.Segs, Segment{Off: off, N: n})
		f.size += n
		if off+n > f.span {
			f.span = off + n
		}
	})
	return f
}
