package rep

// RepresentationInfo is one row of the paper's descriptive matrices:
// Table 2 (cache key representations) and Table 3 (cache value
// representations), with each method's limitation.
type RepresentationInfo struct {
	Representation string
	Method         string
	Limitation     string
}

// KeyRepresentations returns the Table 2 matrix for this
// implementation.
func KeyRepresentations() []RepresentationInfo {
	return []RepresentationInfo{
		{
			Representation: "XML message",
			Method:         "Not required (request is serialized on every lookup)",
			Limitation:     "None",
		},
		{
			Representation: "Application object",
			Method:         "Binary serialization (Go analog of Java serialization)",
			Limitation:     "Serializable object graph (registered bean types)",
		},
		{
			Representation: "Application object",
			Method:         "String concatenation (Go analog of toString)",
			Limitation:     "Primitive parameters or fmt.Stringer implementations",
		},
	}
}

// ValueRepresentations returns the Table 3 matrix for this
// implementation.
func ValueRepresentations() []RepresentationInfo {
	return []RepresentationInfo{
		{
			Representation: "XML message",
			Method:         "Not required (parsed and deserialized on every hit)",
			Limitation:     "None",
		},
		{
			Representation: "SAX events sequence",
			Method:         "Not required (replayed into the deserializer on every hit)",
			Limitation:     "None",
		},
		{
			Representation: "Application object",
			Method:         "Binary serialization (Go analog of Java serialization)",
			Limitation:     "Serializable object graph (registered bean types)",
		},
		{
			Representation: "Application object",
			Method:         "Copy by reflection",
			Limitation:     "Bean/array object graphs (all fields exported)",
		},
		{
			Representation: "Application object",
			Method:         "Copy by clone (CloneDeep)",
			Limitation:     "Cloner implementations (generated classes)",
		},
		{
			Representation: "Application object",
			Method:         "None (pass by reference)",
			Limitation:     "Read-only or immutable objects only",
		},
		{
			Representation: "Serialized response bytes",
			Method:         "Not required (exact bytes replayed to the writer)",
			Limitation:     "Stream-accepting consumers only (hit yields bytes, not an object)",
		},
		{
			Representation: "XML splice template",
			Method:         "Differential serialization (shared skeleton, the origin's text per entry)",
			Limitation:     "Stream-accepting consumers; elements and text only; wins when response shapes repeat",
		},
	}
}
