package core

import (
	"errors"

	"repro/internal/client"
	"repro/internal/invalidate"
	"repro/internal/soap"
)

// This file is the cache side of dependency-aware invalidation
// (Config.Invalidator; see package invalidate and DESIGN.md §5f). The
// cache's role is small and strictly ordered: snapshot read-set epochs
// before the backend read, stamp the fill with them, commit write sets
// after the write-through call, and treat any entry whose stamps have
// been overtaken as if it did not exist.

// readStamps snapshots the invocation's read-set epochs; empty when no
// invalidator is configured or the operation declares no read set.
func (c *Cache) readStamps(ictx *client.Context) invalidate.Stamps {
	if c.inval == nil {
		return invalidate.Stamps{}
	}
	return c.inval.ReadStamps(ictx.Operation, ictx.Params)
}

// commitWrite bumps the epochs of the invocation's declared write set
// after the write-through call has finished. The outcome rules are
// conservative: a success committed the write; a transport-level error
// leaves the outcome unknown (the request may have reached the backend
// before the connection died), so it invalidates too. Only a SOAP
// fault — the backend demonstrably alive, processing the call, and
// rejecting it — proves nothing was written and skips the bump.
func (c *Cache) commitWrite(ictx *client.Context, err error) {
	if c.inval == nil || !c.inval.WritesDeclared(ictx.Operation) {
		return
	}
	if err != nil {
		var f *soap.Fault
		if errors.As(err, &f) {
			return
		}
	}
	c.inval.CommitWrite(ictx.Operation, ictx.Params)
}
