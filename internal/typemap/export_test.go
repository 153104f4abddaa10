package typemap

import "reflect"

// Types returns the Go types registered in r.
func (r *Registry) Types() []reflect.Type {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]reflect.Type, 0, len(r.byName))
	for _, t := range r.byName {
		out = append(out, t)
	}
	return out
}
