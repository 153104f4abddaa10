package client

import (
	"context"
	"fmt"

	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/wsdl"
)

// Service is a WSDL-described remote service: it resolves each
// operation's SOAP action, body namespace, and endpoint from the
// service description, the way an Axis Service/Call pair does.
type Service struct {
	defs     *wsdl.Definitions
	codec    *soap.Codec
	tr       transport.Transport
	endpoint string
	opts     Options
}

// ServiceConfig configures NewService.
type ServiceConfig struct {
	// Endpoint overrides the soap:address location in the WSDL (useful
	// when pointing a client at a local dummy service).
	Endpoint string
	// Options are applied to every Call created by the service.
	Options Options
}

// NewService builds a Service from a parsed WSDL definitions document.
func NewService(defs *wsdl.Definitions, codec *soap.Codec, tr transport.Transport, cfg ServiceConfig) (*Service, error) {
	endpoint := cfg.Endpoint
	if endpoint == "" {
		loc, ok := defs.Endpoint()
		if !ok {
			return nil, fmt.Errorf("client: WSDL %s has no port address and no endpoint override", defs.Name)
		}
		endpoint = loc
	}
	return &Service{defs: defs, codec: codec, tr: tr, endpoint: endpoint, opts: cfg.Options}, nil
}

// Call builds a Call for the named operation.
func (s *Service) Call(operation string) (*Call, error) {
	if _, ok := s.defs.Operation(operation); !ok {
		return nil, fmt.Errorf("client: operation %q not in WSDL %s", operation, s.defs.Name)
	}
	soapAction, namespace := s.bindingDetails(operation)
	return NewCall(s.codec, s.tr, s.endpoint, namespace, operation, soapAction, s.opts), nil
}

// Invoke is a convenience: build the call and invoke it.
func (s *Service) Invoke(ctx context.Context, operation string, params ...soap.Param) (any, error) {
	call, err := s.Call(operation)
	if err != nil {
		return nil, err
	}
	return call.Invoke(ctx, params...)
}

// bindingDetails resolves soapAction and body namespace from the
// binding, defaulting to the target namespace.
func (s *Service) bindingDetails(operation string) (soapAction, namespace string) {
	namespace = s.defs.TargetNamespace
	for _, b := range s.defs.Bindings {
		if bo, ok := b.Operations[operation]; ok {
			soapAction = bo.SOAPAction
			if bo.Namespace != "" {
				namespace = bo.Namespace
			}
			return soapAction, namespace
		}
	}
	return soapAction, namespace
}
