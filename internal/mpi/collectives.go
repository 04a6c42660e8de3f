package mpi

// Collectives over a communicator. All are implemented with real
// point-to-point messages so their virtual-time cost reflects the
// algorithm (dissemination barrier, binomial broadcast, recursive
// doubling, ring allgather). Tag isolation uses a per-rank collective
// sequence number: all ranks call collectives on a communicator in the
// same order, so the sequence numbers agree.

const collTagBase = 1 << 24

// collTag derives the tag for round `round` of the current collective.
func (c *Comm) collTag(round int) int {
	return collTagBase | ((c.collSeq & 0x3FFF) << 8) | (round & 0xFF)
}

// Barrier blocks until all ranks of the communicator have entered it
// (dissemination algorithm, ceil(log2 n) rounds).
func (c *Comm) Barrier() {
	c.collSeq++
	n := c.Size()
	if n == 1 {
		return
	}
	for k, round := 1, 0; k < n; k, round = k*2, round+1 {
		to := (c.rank + k) % n
		from := (c.rank - k + n) % n
		c.Send(to, c.collTag(round), nil)
		c.Recv(from, c.collTag(round))
	}
}

// Bcast distributes root's buffer to all ranks (binomial tree) and
// returns it. Non-root callers pass a buffer of the correct size (its
// contents are replaced); passing nil is allowed if root's size is
// unknown, in which case the returned slice carries the data.
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.collSeq++
	n := c.Size()
	if n == 1 {
		return data
	}
	// Rotate so the root is virtual rank 0.
	vrank := (c.rank - root + n) % n
	tag := c.collTag(0)
	if vrank != 0 {
		// Receive from parent.
		parent := vrank & (vrank - 1) // clear lowest set bit
		data, _ = c.Recv((parent+root)%n, tag)
	}
	// Forward to children: bits above my lowest set bit.
	for bit := 1; bit < n; bit *= 2 {
		if vrank&(bit-1) != 0 || vrank&bit != 0 {
			continue
		}
		child := vrank | bit
		if child < n {
			c.Send((child+root)%n, tag, data)
		}
	}
	return data
}

// The typed collectives move their vectors as the bytes of the
// caller's slice (Bytes), not as encoded copies: every Send snapshots
// its body into a pooled buffer before it returns, so nothing the
// fabric holds aliases the caller's memory. What arrives is decoded
// into the caller's slice and its pooled body handed back.

// bcastInto broadcasts b, the bytes of a typed vector, from root; on
// the other ranks what arrives replaces b's contents. When it is not
// b's length, b is left alone and the pooled body is returned, for the
// caller to decode and hand back; otherwise the result is nil. It is
// not generic, so the caller's slice stays on the caller's stack.
func (c *Comm) bcastInto(root int, b []byte) []byte {
	if c.rank == root {
		c.Bcast(root, b)
		return nil
	}
	out := c.Bcast(root, nil)
	if len(out) != len(b) {
		return out
	}
	copy(b, out)
	c.r.W.M.PutBuf(out)
	return nil
}

// BcastI64 broadcasts a vector of int64 from root into vals. A non-root
// caller passes a slice of root's length, whose contents are replaced;
// given another length (nil when it is unknown), it gets a new slice
// that carries the data. The result is returned on every rank.
func (c *Comm) BcastI64(root int, vals []int64) []int64 {
	if out := c.bcastInto(root, Bytes(vals)); out != nil {
		vals = make([]int64, len(out)/8)
		copy(Bytes(vals), out)
		c.r.W.M.PutBuf(out)
	}
	return vals
}

// BcastF64 broadcasts a vector of float64 from root, as BcastI64 does.
func (c *Comm) BcastF64(root int, vals []float64) []float64 {
	if out := c.bcastInto(root, Bytes(vals)); out != nil {
		vals = make([]float64, len(out)/8)
		copy(Bytes(vals), out)
		c.r.W.M.PutBuf(out)
	}
	return vals
}

// Allgather concatenates every rank's equal-sized contribution in rank
// order (ring algorithm, n-1 steps).
func (c *Comm) Allgather(mine []byte) [][]byte {
	c.collSeq++
	n := c.Size()
	out := make([][]byte, n)
	out[c.rank] = c.snapshot(mine)
	if n == 1 {
		return out
	}
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	cur := c.rank
	for step := 0; step < n-1; step++ {
		tag := c.collTag(step)
		data, _ := c.Sendrecv(right, tag, out[cur], left, tag)
		cur = (cur - 1 + n) % n
		out[cur] = data
	}
	return out
}

// AllgatherI64 gathers equal-length int64 vectors, concatenated in rank
// order, on every rank. The library's own metadata exchanges use
// GatherI64 plus a broadcast instead: the ring sends n(n−1) messages.
func (c *Comm) AllgatherI64(mine []int64) []int64 {
	return c.decodeI64s(c.Allgather(Bytes(mine)), len(mine))
}

// decodeI64s concatenates per-rank message bodies of per int64s each,
// in rank order, handing every body back to the pool once decoded.
func (c *Comm) decodeI64s(parts [][]byte, per int) []int64 {
	out := make([]int64, 0, len(parts)*per)
	for _, p := range parts {
		out = appendI64s(out, p)
		c.r.W.M.PutBuf(p)
	}
	return out
}

// Gather collects every rank's contribution at root (in rank order);
// non-root ranks receive nil. Every slot, the root's own included, is a
// pooled message body that now belongs to the caller (see snapshot);
// GatherI64 hands them back once decoded.
func (c *Comm) Gather(root int, mine []byte) [][]byte {
	c.collSeq++
	tag := c.collTag(0)
	if c.rank != root {
		c.Send(root, tag, mine)
		return nil
	}
	out := make([][]byte, c.Size())
	out[root] = c.snapshot(mine)
	for i := 0; i < c.Size()-1; i++ {
		data, st := c.Recv(AnySource, tag)
		out[st.Source] = data
	}
	return out
}

// GatherI64 gathers equal-length int64 vectors at root, concatenated in
// rank order; non-root ranks receive nil.
func (c *Comm) GatherI64(root int, mine []int64) []int64 {
	parts := c.Gather(root, Bytes(mine))
	if parts == nil {
		return nil
	}
	return c.decodeI64s(parts, len(mine))
}

// AllreduceF64 reduces float64 vectors elementwise across all ranks
// (recursive doubling for power-of-two sizes, with a fold-in step for
// the remainder). The result replaces vals on every rank, and is
// returned.
func (c *Comm) AllreduceF64(op Op, vals []float64) []float64 {
	c.allreduce(op, Bytes(vals), true)
	return vals
}

// AllreduceI64 reduces int64 vectors elementwise across all ranks. The
// result replaces vals on every rank, and is returned.
func (c *Comm) AllreduceI64(op Op, vals []int64) []int64 {
	c.allreduce(op, Bytes(vals), false)
	return vals
}

// allreduce is the allreduce schedule over acc, the bytes of the
// caller's vector of float64s (f64) or int64s, which it reduces in
// place.
func (c *Comm) allreduce(op Op, acc []byte, f64 bool) {
	reduce := func(data []byte) {
		if f64 {
			ReduceBytesF64(op, acc, data)
		} else {
			reduceI64(op, View[int64](acc), View[int64](data[:len(acc)]))
		}
		c.r.W.M.PutBuf(data)
	}
	c.collSeq++
	n := c.Size()
	if n == 1 {
		return
	}
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2
	tagR := c.collTag(254)
	// Fold the remainder ranks into their partners.
	if c.rank >= pow2 {
		c.Send(c.rank-pow2, tagR, acc)
	} else if c.rank < rem {
		data, _ := c.Recv(c.rank+pow2, tagR)
		reduce(data)
	}
	if c.rank < pow2 {
		for k, round := 1, 0; k < pow2; k, round = k*2, round+1 {
			peer := c.rank ^ k
			tag := c.collTag(round)
			data, _ := c.Sendrecv(peer, tag, acc, peer, tag)
			reduce(data)
		}
	}
	// Send results back to the remainder ranks.
	tagB := c.collTag(255)
	if c.rank < rem {
		c.Send(c.rank+pow2, tagB, acc)
	} else if c.rank >= pow2 {
		data, _ := c.Recv(c.rank-pow2, tagB)
		copy(acc, data)
		c.r.W.M.PutBuf(data)
	}
}
