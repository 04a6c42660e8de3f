package armcimpi

// MemoFill reports how many slots of the job's strided-datatype memo
// hold a shape, and how many it has.
func (w *World) MemoFill() (filled, slots int) {
	for _, e := range w.dtMemo {
		if e.t != nil {
			filled++
		}
	}
	return filled, len(w.dtMemo)
}
