package server

import "net/http"

// MemoShapes returns how many request shapes d's memo has learnt.
func (d *Dispatcher) MemoShapes() int { return d.memo.Shapes() }

// Replay returns a function that serves body through h once per call,
// allocating only what h does (replay).
func Replay(h http.Handler, body []byte) func() { return replay(h, body) }
