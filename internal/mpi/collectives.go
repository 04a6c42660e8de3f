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

// bcastI64 broadcasts int64s from root.
func (c *Comm) bcastI64(root int, vals []int64) []int64 {
	out := c.Bcast(root, i64sToBytes(vals))
	vals = bytesToI64s(out)
	c.r.W.M.PutBuf(out)
	return vals
}

// BcastI64 broadcasts a vector of int64 from root.
func (c *Comm) BcastI64(root int, vals []int64) []int64 { return c.bcastI64(root, vals) }

// BcastF64 broadcasts a vector of float64 from root.
func (c *Comm) BcastF64(root int, vals []float64) []float64 {
	out := c.Bcast(root, f64sToBytes(vals))
	vals = bytesToF64s(out)
	c.r.W.M.PutBuf(out)
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
	return c.decodeI64s(c.Allgather(i64sToBytes(mine)), len(mine))
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
	parts := c.Gather(root, i64sToBytes(mine))
	if parts == nil {
		return nil
	}
	return c.decodeI64s(parts, len(mine))
}

// AllreduceF64 reduces float64 vectors elementwise across all ranks
// (recursive doubling for power-of-two sizes, with a fold-in step for
// the remainder) and returns the result on every rank.
func (c *Comm) AllreduceF64(op Op, vals []float64) []float64 {
	c.collSeq++
	acc := append([]float64(nil), vals...)
	n := c.Size()
	if n == 1 {
		return acc
	}
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2
	tagR := c.collTag(254)
	// Fold the remainder ranks into their partners.
	if c.rank >= pow2 {
		c.Send(c.rank-pow2, tagR, f64sToBytes(acc))
	} else if c.rank < rem {
		data, _ := c.Recv(c.rank+pow2, tagR)
		reduceF64(op, acc, bytesToF64s(data))
		c.r.W.M.PutBuf(data)
	}
	if c.rank < pow2 {
		for k, round := 1, 0; k < pow2; k, round = k*2, round+1 {
			peer := c.rank ^ k
			tag := c.collTag(round)
			data, _ := c.Sendrecv(peer, tag, f64sToBytes(acc), peer, tag)
			reduceF64(op, acc, bytesToF64s(data))
			c.r.W.M.PutBuf(data)
		}
	}
	// Send results back to the remainder ranks.
	tagB := c.collTag(255)
	if c.rank < rem {
		c.Send(c.rank+pow2, tagB, f64sToBytes(acc))
	} else if c.rank >= pow2 {
		data, _ := c.Recv(c.rank-pow2, tagB)
		acc = bytesToF64s(data)
		c.r.W.M.PutBuf(data)
	}
	return acc
}

// AllreduceI64 reduces int64 vectors elementwise across all ranks.
func (c *Comm) AllreduceI64(op Op, vals []int64) []int64 {
	c.collSeq++
	acc := append([]int64(nil), vals...)
	n := c.Size()
	if n == 1 {
		return acc
	}
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2
	tagR := c.collTag(254)
	if c.rank >= pow2 {
		c.Send(c.rank-pow2, tagR, i64sToBytes(acc))
	} else if c.rank < rem {
		data, _ := c.Recv(c.rank+pow2, tagR)
		reduceI64(op, acc, bytesToI64s(data))
		c.r.W.M.PutBuf(data)
	}
	if c.rank < pow2 {
		for k, round := 1, 0; k < pow2; k, round = k*2, round+1 {
			peer := c.rank ^ k
			tag := c.collTag(round)
			data, _ := c.Sendrecv(peer, tag, i64sToBytes(acc), peer, tag)
			reduceI64(op, acc, bytesToI64s(data))
			c.r.W.M.PutBuf(data)
		}
	}
	tagB := c.collTag(255)
	if c.rank < rem {
		c.Send(c.rank+pow2, tagB, i64sToBytes(acc))
	} else if c.rank >= pow2 {
		data, _ := c.Recv(c.rank-pow2, tagB)
		acc = bytesToI64s(data)
		c.r.W.M.PutBuf(data)
	}
	return acc
}
