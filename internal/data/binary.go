package data

import (
	"fmt"
	"sort"

	"repro/internal/codec"
)

// Binary value codec registrations for the data types (see codec.EncodeValue).
// Every map here is written in sorted key order so re-encoding a decoded
// value is byte-stable — the equivalence harness compares encodings across
// executors.

func init() {
	codec.RegisterValue(&Collection{}, "data.*Collection",
		func(w *codec.Writer, v any) error { encodeCollection(w, v.(*Collection)); return nil },
		func(r *codec.Reader) (any, error) { return decodeCollection(r) })
	codec.RegisterValue(Collection{}, "data.Collection",
		func(w *codec.Writer, v any) error { c := v.(Collection); encodeCollection(w, &c); return nil },
		func(r *codec.Reader) (any, error) {
			c, err := decodeCollection(r)
			if err != nil {
				return nil, err
			}
			return *c, nil
		})
	codec.RegisterValue(Row{}, "data.Row",
		func(w *codec.Writer, v any) error {
			row := v.(Row)
			w.Len(len(row.Fields))
			for _, f := range row.Fields {
				w.String(f)
			}
			return nil
		},
		func(r *codec.Reader) (any, error) {
			n, err := r.Len()
			if err != nil {
				return nil, err
			}
			fields := make([]string, n)
			for i := range fields {
				if fields[i], err = r.String(); err != nil {
					return nil, err
				}
			}
			return Row{Fields: fields}, nil
		})
	codec.RegisterValue(&Schema{}, "data.*Schema",
		func(w *codec.Writer, v any) error { encodeSchema(w, v.(*Schema)); return nil },
		func(r *codec.Reader) (any, error) { return decodeSchema(r) })
	codec.RegisterValue(FeatureMap{}, "data.FeatureMap",
		func(w *codec.Writer, v any) error { encodeFeatureMapSorted(w, nil, v.(FeatureMap)); return nil },
		func(r *codec.Reader) (any, error) { return decodeFeatureMap(r, nil) })
	codec.RegisterValue(&ExampleSet{}, "data.*ExampleSet",
		func(w *codec.Writer, v any) error { encodeExampleSet(w, v.(*ExampleSet)); return nil },
		func(r *codec.Reader) (any, error) { return decodeExampleSet(r) })
	codec.RegisterValue(ExampleSet{}, "data.ExampleSet",
		func(w *codec.Writer, v any) error { s := v.(ExampleSet); encodeExampleSet(w, &s); return nil },
		func(r *codec.Reader) (any, error) {
			s, err := decodeExampleSet(r)
			if err != nil {
				return nil, err
			}
			return *s, nil
		})
	codec.RegisterValue(&Dictionary{}, "data.*Dictionary",
		func(w *codec.Writer, v any) error { encodeDictionary(w, v.(*Dictionary)); return nil },
		func(r *codec.Reader) (any, error) { return decodeDictionary(r) })
	codec.RegisterValue(Vector{}, "data.Vector",
		func(w *codec.Writer, v any) error { encodeVector(w, v.(Vector)); return nil },
		func(r *codec.Reader) (any, error) { return decodeVector(r) })
	codec.RegisterValue(Labeled{}, "data.Labeled",
		func(w *codec.Writer, v any) error {
			l := v.(Labeled)
			w.Float64(l.Y)
			encodeVector(w, l.X)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			y, err := r.Float64()
			if err != nil {
				return nil, err
			}
			x, err := decodeVector(r)
			if err != nil {
				return nil, err
			}
			return Labeled{X: x, Y: y}, nil
		})
	codec.RegisterValue(&FieldExtractor{}, "data.*FieldExtractor",
		func(w *codec.Writer, v any) error {
			f := v.(*FieldExtractor)
			w.String(f.Col)
			encodeBool(w, f.Numeric)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			col, err := r.String()
			if err != nil {
				return nil, err
			}
			num, err := decodeBool(r)
			if err != nil {
				return nil, err
			}
			return &FieldExtractor{Col: col, Numeric: num}, nil
		})
	codec.RegisterValue(&Bucketizer{}, "data.*Bucketizer",
		func(w *codec.Writer, v any) error {
			b := v.(*Bucketizer)
			w.String(b.Col)
			w.Int(b.Bins)
			w.Float64(b.Lo)
			w.Float64(b.Width)
			encodeBool(w, b.Fitted)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var b Bucketizer
			var err error
			if b.Col, err = r.String(); err != nil {
				return nil, err
			}
			if b.Bins, err = r.Int(); err != nil {
				return nil, err
			}
			if b.Lo, err = r.Float64(); err != nil {
				return nil, err
			}
			if b.Width, err = r.Float64(); err != nil {
				return nil, err
			}
			if b.Fitted, err = decodeBool(r); err != nil {
				return nil, err
			}
			return &b, nil
		})
	codec.RegisterValue(&InteractionFeature{}, "data.*InteractionFeature",
		func(w *codec.Writer, v any) error {
			x := v.(*InteractionFeature)
			w.Len(len(x.Cols))
			for _, c := range x.Cols {
				w.String(c)
			}
			return nil
		},
		func(r *codec.Reader) (any, error) {
			n, err := r.Len()
			if err != nil {
				return nil, err
			}
			cols := make([]string, n)
			for i := range cols {
				if cols[i], err = r.String(); err != nil {
					return nil, err
				}
			}
			return &InteractionFeature{Cols: cols}, nil
		})
}

func encodeBool(w *codec.Writer, b bool) {
	if b {
		w.Uvarint(1)
	} else {
		w.Uvarint(0)
	}
}

func decodeBool(r *codec.Reader) (bool, error) {
	b, err := r.Uvarint()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("data: bad bool %d", b)
	}
	return b == 1, nil
}

func encodeSchema(w *codec.Writer, s *Schema) {
	w.Len(len(s.names))
	for _, n := range s.names {
		w.String(n)
	}
}

func decodeSchema(r *codec.Reader) (*Schema, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		if names[i], err = r.String(); err != nil {
			return nil, err
		}
	}
	return NewSchema(names...)
}

func encodeCollection(w *codec.Writer, c *Collection) {
	encodeSchema(w, c.Schema)
	w.Len(len(c.Rows))
	table := codec.NewStringTable()
	for _, row := range c.Rows {
		w.Len(len(row.Fields))
		for _, f := range row.Fields {
			table.Write(w, f)
		}
	}
}

// maxPrealloc caps the cells decodeCollection reserves up front. Row and
// column counts are each checked against the buffer, but their product is
// not, so a corrupt payload could otherwise ask for a huge slab before the
// truncation that rejects it; larger collections grow past the cap.
const maxPrealloc = 1 << 20

// decodeCollection rebuilds a collection whose rows all share one backing
// []string. A row whose arity differs from the schema's is rejected:
// operators index fields by schema position.
func decodeCollection(r *codec.Reader) (*Collection, error) {
	schema, err := decodeSchema(r)
	if err != nil {
		return nil, err
	}
	nrows, err := r.Len()
	if err != nil {
		return nil, err
	}
	ncols := schema.Len()
	rows := make([]Row, nrows)
	slab := make([]string, 0, min(nrows*ncols, maxPrealloc))
	table := codec.NewReadStringTable()
	for i := range rows {
		nf, err := r.Len()
		if err != nil {
			return nil, err
		}
		if nf != ncols {
			return nil, fmt.Errorf("data: row %d has %d fields, schema has %d", i, nf, ncols)
		}
		start := len(slab)
		for j := 0; j < nf; j++ {
			f, err := table.Read(r)
			if err != nil {
				return nil, err
			}
			slab = append(slab, f)
		}
		rows[i] = Row{Fields: slab[start:len(slab):len(slab)]}
	}
	return &Collection{Schema: schema, Rows: rows}, nil
}

// sortedNames returns fm's keys in sorted order. When fm has exactly the
// same key set as prev (the common case for feature-extracted examples,
// which share one feature schema across a whole set), prev is returned
// as-is — skipping the per-map iterate+sort+allocate that otherwise
// dominates encode cost on map-heavy values.
func sortedNames(fm FeatureMap, prev []string) []string {
	if len(prev) == len(fm) {
		same := true
		for _, n := range prev {
			if _, ok := fm[n]; !ok {
				same = false
				break
			}
		}
		if same {
			return prev
		}
	}
	names := make([]string, 0, len(fm))
	for n := range fm {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// encodeFeatureMapSorted writes one feature map in sorted name order,
// optionally interning names through a shared table.
func encodeFeatureMapSorted(w *codec.Writer, table *codec.StringTable, fm FeatureMap) {
	encodeFeatureMapReuse(w, table, fm, nil)
}

// encodeFeatureMapReuse is encodeFeatureMapSorted with sorted-key reuse
// across consecutive maps (see sortedNames); it returns the key slice to
// pass as prev for the next map.
func encodeFeatureMapReuse(w *codec.Writer, table *codec.StringTable, fm FeatureMap, prev []string) []string {
	names := sortedNames(fm, prev)
	w.Len(len(names))
	for _, n := range names {
		if table != nil {
			table.Write(w, n)
		} else {
			w.String(n)
		}
		w.Float64(fm[n])
	}
	return names
}

func decodeFeatureMap(r *codec.Reader, table *codec.ReadStringTable) (FeatureMap, error) {
	k, err := r.Len()
	if err != nil {
		return nil, err
	}
	fm := make(FeatureMap, k)
	for j := 0; j < k; j++ {
		var name string
		if table != nil {
			name, err = table.Read(r)
		} else {
			name, err = r.String()
		}
		if err != nil {
			return nil, err
		}
		val, err := r.Float64()
		if err != nil {
			return nil, err
		}
		fm[name] = val
	}
	return fm, nil
}

func encodeExampleSet(w *codec.Writer, s *ExampleSet) {
	w.Len(len(s.Examples))
	table := codec.NewStringTable()
	var keys []string
	for _, ex := range s.Examples {
		keys = encodeFeatureMapReuse(w, table, ex.Features, keys)
		w.Float64(ex.Label)
		encodeBool(w, ex.HasLabel)
	}
}

func decodeExampleSet(r *codec.Reader) (*ExampleSet, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	table := codec.NewReadStringTable()
	examples := make([]Example, n)
	for i := range examples {
		fm, err := decodeFeatureMap(r, table)
		if err != nil {
			return nil, err
		}
		label, err := r.Float64()
		if err != nil {
			return nil, err
		}
		has, err := decodeBool(r)
		if err != nil {
			return nil, err
		}
		examples[i] = Example{Features: fm, Label: label, HasLabel: has}
	}
	return &ExampleSet{Examples: examples}, nil
}

func encodeDictionary(w *codec.Writer, d *Dictionary) {
	w.Len(len(d.names))
	for _, n := range d.names {
		w.String(n)
	}
	encodeBool(w, d.frozen)
}

func decodeDictionary(r *codec.Reader) (*Dictionary, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	d := NewDictionary()
	for i := 0; i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		d.Add(name)
	}
	if d.frozen, err = decodeBool(r); err != nil {
		return nil, err
	}
	return d, nil
}

func encodeVector(w *codec.Writer, v Vector) {
	w.Len(len(v.Indices))
	for _, i := range v.Indices {
		w.Int(i)
	}
	for _, x := range v.Values {
		w.Float64(x)
	}
}

func decodeVector(r *codec.Reader) (Vector, error) {
	n, err := r.Len()
	if err != nil {
		return Vector{}, err
	}
	idx := make([]int, n)
	for i := range idx {
		if idx[i], err = r.Int(); err != nil {
			return Vector{}, err
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		if vals[i], err = r.Float64(); err != nil {
			return Vector{}, err
		}
	}
	v := Vector{Indices: idx, Values: vals}
	if err := v.Validate(); err != nil {
		return Vector{}, err
	}
	return v, nil
}
