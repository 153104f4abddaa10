package server

// MemoShapes returns how many request shapes d's memo has learnt.
func (d *Dispatcher) MemoShapes() int { return d.memo.Shapes() }
