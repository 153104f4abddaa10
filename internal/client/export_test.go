package client

import (
	"net/http"

	"repro/internal/soap"
	"repro/internal/wsdl"
)

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ictx *Context, next Invoker) error

func (f HandlerFunc) HandleInvoke(ictx *Context, next Invoker) error { return f(ictx, next) }

// BreakerClosed is the state of a breaker that admits every invocation.
const BreakerClosed = breakerClosed

func (c *Call) Codec() *soap.Codec                { return c.codec }
func (c *Call) Operation() string                 { return c.operation }
func (c *Call) Endpoint() string                  { return c.endpoint }
func (c *Call) SharedHeader() http.Header         { return c.header }
func (s *Service) Definitions() *wsdl.Definitions { return s.defs }
