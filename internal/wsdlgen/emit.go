package wsdlgen

import (
	"fmt"
	"sort"
	"strings"
)

// emit renders the planned types and client to Go source.
func (g *generator) emit() ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by wsdlgen from WSDL %q. DO NOT EDIT.\n\n", g.defs.Name)
	fmt.Fprintf(&b, "// Package %s contains the generated types and client for the\n", g.opts.Package)
	fmt.Fprintf(&b, "// %s service (target namespace %s).\n", g.defs.Name, g.defs.TargetNamespace)
	fmt.Fprintf(&b, "package %s\n\n", g.opts.Package)

	b.WriteString("import (\n")
	var std []string
	if !g.opts.SkipClient {
		std = append(std, "context", "fmt")
	}
	if g.clonesSlices() {
		std = append(std, "slices")
	}
	for _, path := range std {
		fmt.Fprintf(&b, "\t%q\n", path)
	}
	if len(std) > 0 {
		b.WriteString("\n")
	}
	if !g.opts.SkipClient {
		b.WriteString("\t\"repro/internal/client\"\n")
		b.WriteString("\t\"repro/internal/soap\"\n")
		b.WriteString("\t\"repro/internal/transport\"\n")
	}
	b.WriteString("\t\"repro/internal/typemap\"\n")
	if !g.opts.SkipClient {
		b.WriteString("\t\"repro/internal/wsdl\"\n")
	}
	b.WriteString(")\n\n")

	fmt.Fprintf(&b, "// TargetNamespace is the service's XML namespace.\nconst TargetNamespace = %q\n\n", g.defs.TargetNamespace)

	for i := range g.types {
		g.emitType(&b, &g.types[i])
	}
	g.emitRegister(&b)
	if !g.opts.SkipClient {
		if err := g.emitClient(&b); err != nil {
			return nil, err
		}
	}
	return []byte(b.String()), nil
}

// clonesSlices reports whether some CloneDeep copies a slice of
// reference-free values, which it does with slices.Clone.
func (g *generator) clonesSlices() bool {
	for i := range g.types {
		for _, f := range g.types[i].Fields {
			if f.refKind == refBytes || f.refKind == refSliceSimple {
				return true
			}
		}
	}
	return false
}

// emitType renders one struct with its CloneDeep method.
func (g *generator) emitType(b *strings.Builder, t *genType) {
	fmt.Fprintf(b, "// %s is generated from the schema type {%s}%s.\n",
		t.GoName, t.XMLName.Space, t.XMLName.Local)
	fmt.Fprintf(b, "type %s struct {\n", t.GoName)
	for _, f := range t.Fields {
		tag := ""
		if lowerFirst(f.GoName) != f.XMLName {
			tag = fmt.Sprintf(" `xml:%q`", f.XMLName)
		}
		fmt.Fprintf(b, "\t%s %s%s\n", f.GoName, f.GoType, tag)
	}
	b.WriteString("}\n\n")

	// Compile-time Cloner compliance.
	fmt.Fprintf(b, "var _ typemap.Cloner = (*%s)(nil)\n\n", t.GoName)

	// CloneDeep: start from a value copy, then fix up reference fields.
	fmt.Fprintf(b, "// CloneDeep implements typemap.Cloner with a deep copy; the cache's\n")
	fmt.Fprintf(b, "// copy-by-clone representation relies on it.\n")
	fmt.Fprintf(b, "func (v *%s) CloneDeep() any {\n", t.GoName)
	b.WriteString("\tout := *v\n")
	for _, f := range t.Fields {
		switch f.refKind {
		case refBytes, refSliceSimple:
			// slices.Clone keeps a nil slice nil and an empty one empty.
			fmt.Fprintf(b, "\tout.%s = slices.Clone(v.%s)\n", f.GoName, f.GoName)
		case refSliceDeep:
			elem := strings.TrimPrefix(f.GoType, "[]")
			fmt.Fprintf(b, "\tif v.%s != nil {\n", f.GoName)
			fmt.Fprintf(b, "\t\tout.%s = make([]%s, len(v.%s))\n", f.GoName, elem, f.GoName)
			fmt.Fprintf(b, "\t\tfor i := range v.%s {\n", f.GoName)
			fmt.Fprintf(b, "\t\t\tout.%s[i] = *v.%s[i].CloneDeep().(*%s)\n", f.GoName, f.GoName, elem)
			b.WriteString("\t\t}\n\t}\n")
		case refPtrStruct:
			elem := strings.TrimPrefix(f.GoType, "*")
			fmt.Fprintf(b, "\tif v.%s != nil {\n", f.GoName)
			fmt.Fprintf(b, "\t\tout.%s = v.%s.CloneDeep().(*%s)\n", f.GoName, f.GoName, elem)
			b.WriteString("\t}\n")
		case refStructDeep:
			fmt.Fprintf(b, "\tout.%s = *v.%s.CloneDeep().(*%s)\n", f.GoName, f.GoName, f.elemGoName)
		}
	}
	b.WriteString("\treturn &out\n}\n\n")
}

// emitRegister renders RegisterTypes.
func (g *generator) emitRegister(b *strings.Builder) {
	b.WriteString("// RegisterTypes binds the generated types to their XML names in a\n")
	b.WriteString("// typemap registry, as the service's deployment descriptor would.\n")
	b.WriteString("func RegisterTypes(reg *typemap.Registry) error {\n")
	b.WriteString("\tfor _, binding := range []struct {\n\t\tlocal string\n\t\tproto any\n\t}{\n")
	for i := range g.types {
		t := &g.types[i]
		fmt.Fprintf(b, "\t\t{%q, %s{}},\n", t.XMLName.Local, t.GoName)
	}
	b.WriteString("\t} {\n")
	b.WriteString("\t\tif err := reg.Register(typemap.QName{Space: TargetNamespace, Local: binding.local}, binding.proto); err != nil {\n")
	b.WriteString("\t\t\treturn err\n\t\t}\n\t}\n\treturn nil\n}\n\n")
}

// emitClient renders the typed service client: one method per
// operation.
func (g *generator) emitClient(b *strings.Builder) error {
	svcName := upperFirst(g.defs.Name) + "Client"
	fmt.Fprintf(b, "// %s is the typed client for the %s service.\n", svcName, g.defs.Name)
	fmt.Fprintf(b, "type %s struct {\n\tsvc *client.Service\n}\n\n", svcName)

	fmt.Fprintf(b, "// New%s builds the typed client. The codec's registry must have\n", svcName)
	b.WriteString("// the generated types registered (RegisterTypes).\n")
	fmt.Fprintf(b, "func New%s(defs *wsdl.Definitions, codec *soap.Codec, tr transport.Transport, cfg client.ServiceConfig) (*%s, error) {\n", svcName, svcName)
	b.WriteString("\tsvc, err := client.NewService(defs, codec, tr, cfg)\n")
	b.WriteString("\tif err != nil {\n\t\treturn nil, err\n\t}\n")
	fmt.Fprintf(b, "\treturn &%s{svc: svc}, nil\n}\n\n", svcName)

	// Deterministic operation order.
	var ops []string
	for _, pt := range g.defs.PortTypes {
		for name := range pt.Operations {
			ops = append(ops, name)
		}
	}
	sort.Strings(ops)

	for _, opName := range ops {
		if err := g.emitOperation(b, svcName, opName); err != nil {
			return err
		}
	}
	return nil
}

// emitOperation renders one typed method.
func (g *generator) emitOperation(b *strings.Builder, svcName, opName string) error {
	in, out, err := g.defs.OperationIO(opName)
	if err != nil {
		return err
	}

	var params []string
	var callArgs []string
	for _, p := range in.Parts {
		goType, _, _, err := g.goTypeFor(p.Type)
		if err != nil {
			return fmt.Errorf("wsdlgen: operation %s parameter %s: %w", opName, p.Name, err)
		}
		params = append(params, fmt.Sprintf("%s %s", safeIdent(p.Name), goType))
		callArgs = append(callArgs, fmt.Sprintf("soap.Param{Name: %q, Value: %s}", p.Name, safeIdent(p.Name)))
	}

	retType := "any"
	if len(out.Parts) > 0 {
		rt, _, _, err := g.goTypeFor(out.Parts[0].Type)
		if err != nil {
			return fmt.Errorf("wsdlgen: operation %s return: %w", opName, err)
		}
		retType = rt
		// Complex types are returned by pointer, as the decoder
		// produces them.
		if _, ok := g.lookupLocal(rt); ok {
			retType = "*" + rt
		}
	}

	method := upperFirst(opName)
	// Zero-part input messages produce a parameterless method and a
	// bare Invoke; joining an empty list would leave trailing commas.
	paramList := ""
	if len(params) > 0 {
		paramList = ", " + strings.Join(params, ", ")
	}
	fmt.Fprintf(b, "// %s invokes the %s operation.\n", method, opName)
	fmt.Fprintf(b, "func (c *%s) %s(ctx context.Context%s) (%s, error) {\n",
		svcName, method, paramList, retType)
	if len(callArgs) > 0 {
		fmt.Fprintf(b, "\tres, err := c.svc.Invoke(ctx, %q,\n\t\t%s,\n\t)\n", opName, strings.Join(callArgs, ",\n\t\t"))
	} else {
		fmt.Fprintf(b, "\tres, err := c.svc.Invoke(ctx, %q)\n", opName)
	}
	b.WriteString("\tif err != nil {\n\t\tvar zero " + retType + "\n\t\treturn zero, err\n\t}\n")
	fmt.Fprintf(b, "\tout, ok := res.(%s)\n", retType)
	b.WriteString("\tif !ok {\n")
	fmt.Fprintf(b, "\t\tvar zero %s\n", retType)
	fmt.Fprintf(b, "\t\treturn zero, fmt.Errorf(\"%s: unexpected result type %%T\", res)\n", opName)
	b.WriteString("\t}\n\treturn out, nil\n}\n\n")
	return nil
}

// safeIdent avoids Go keywords in parameter names.
func safeIdent(name string) string {
	switch name {
	case "type", "func", "map", "range", "select", "case", "chan", "const",
		"continue", "default", "defer", "else", "fallthrough", "for", "go",
		"goto", "if", "import", "interface", "package", "return", "struct",
		"switch", "var", "break":
		return name + "_"
	}
	return name
}
