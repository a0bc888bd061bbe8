package seq

import (
	"fmt"

	"repro/internal/codec"
)

// Binary value codec registrations for the sequence-labeling types (see
// codec.EncodeValue). FeatureDict's map encodes in dense index order so the
// bytes are deterministic.

func init() {
	codec.RegisterValue(&Model{}, "seq.*Model",
		func(w *codec.Writer, v any) error { encodeModel(w, v.(*Model)); return nil },
		func(r *codec.Reader) (any, error) { return decodeModel(r) })
	codec.RegisterValue(Span{}, "seq.Span",
		func(w *codec.Writer, v any) error {
			s := v.(Span)
			w.Int(s.Start)
			w.Int(s.End)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var s Span
			var err error
			if s.Start, err = r.Int(); err != nil {
				return nil, err
			}
			if s.End, err = r.Int(); err != nil {
				return nil, err
			}
			return s, nil
		})
	codec.RegisterValue(&FeatureDict{}, "seq.*FeatureDict",
		func(w *codec.Writer, v any) error { return encodeFeatureDict(w, v.(*FeatureDict)) },
		func(r *codec.Reader) (any, error) { return decodeFeatureDict(r) })
}

func encodeModel(w *codec.Writer, m *Model) {
	w.Int(m.Dim)
	for t := 0; t < NumTags; t++ {
		w.Len(len(m.Emit[t]))
		for _, x := range m.Emit[t] {
			w.Float64(x)
		}
	}
	for i := 0; i <= NumTags; i++ {
		for j := 0; j < NumTags; j++ {
			w.Float64(m.Trans[i][j])
		}
	}
}

func decodeModel(r *codec.Reader) (*Model, error) {
	var m Model
	var err error
	if m.Dim, err = r.Int(); err != nil {
		return nil, err
	}
	for t := 0; t < NumTags; t++ {
		n, err := r.Len()
		if err != nil {
			return nil, err
		}
		em := make([]float64, n)
		for i := range em {
			if em[i], err = r.Float64(); err != nil {
				return nil, err
			}
		}
		m.Emit[t] = em
	}
	for i := 0; i <= NumTags; i++ {
		for j := 0; j < NumTags; j++ {
			if m.Trans[i][j], err = r.Float64(); err != nil {
				return nil, err
			}
		}
	}
	return &m, nil
}

func encodeFeatureDict(w *codec.Writer, d *FeatureDict) error {
	names := make([]string, len(d.index))
	seen := make([]bool, len(d.index))
	for n, i := range d.index {
		if i < 0 || i >= len(names) || seen[i] {
			return fmt.Errorf("seq: feature dict index not dense at %q -> %d", n, i)
		}
		names[i] = n
		seen[i] = true
	}
	w.Len(len(names))
	for _, n := range names {
		w.String(n)
	}
	if d.frozen {
		w.Uvarint(1)
	} else {
		w.Uvarint(0)
	}
	return nil
}

func decodeFeatureDict(r *codec.Reader) (*FeatureDict, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	d := NewFeatureDict()
	for i := 0; i < n; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		d.Add(name)
	}
	frozen, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if frozen > 1 {
		return nil, fmt.Errorf("seq: bad frozen flag %d", frozen)
	}
	d.frozen = frozen == 1
	return d, nil
}
