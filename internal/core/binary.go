package core

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/data"
	"repro/internal/ml"
)

// Binary value codec registrations for the pipeline composite values and the
// ML model types they carry (see codec.EncodeValue). FittedExtractor holds
// an interface; its payload recurses through codec.EncodeValue, so the
// concrete extractor types register in internal/data.

func init() {
	codec.RegisterValue(TextPair{}, "core.TextPair",
		func(w *codec.Writer, v any) error {
			p := v.(TextPair)
			w.String(p.Train)
			w.String(p.Test)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var p TextPair
			var err error
			if p.Train, err = r.String(); err != nil {
				return nil, err
			}
			if p.Test, err = r.String(); err != nil {
				return nil, err
			}
			return p, nil
		})
	codec.RegisterValue(CollectionPair{}, "core.CollectionPair",
		func(w *codec.Writer, v any) error {
			p := v.(CollectionPair)
			if err := codec.EncodeValue(w, p.Train); err != nil {
				return err
			}
			return codec.EncodeValue(w, p.Test)
		},
		func(r *codec.Reader) (any, error) {
			train, err := codec.DecodeValue(r)
			if err != nil {
				return nil, err
			}
			test, err := codec.DecodeValue(r)
			if err != nil {
				return nil, err
			}
			tr, ok1 := train.(*data.Collection)
			te, ok2 := test.(*data.Collection)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("core: collection pair holds %T and %T", train, test)
			}
			return CollectionPair{Train: tr, Test: te}, nil
		})
	codec.RegisterValue(FittedExtractor{}, "core.FittedExtractor",
		func(w *codec.Writer, v any) error {
			return codec.EncodeValue(w, v.(FittedExtractor).Ex)
		},
		func(r *codec.Reader) (any, error) {
			ex, err := codec.DecodeValue(r)
			if err != nil {
				return nil, err
			}
			e, ok := ex.(data.Extractor)
			if !ok {
				return nil, codec.ErrUnregistered
			}
			return FittedExtractor{Ex: e}, nil
		})
	// The columnar census layouts name their layout: a payload written
	// under an older layout's name finds no decoder, so the store drops it
	// and the engine recomputes the value instead of misreading it.
	codec.RegisterValue(FeatureColumn{}, "core.CSRFeatureColumn",
		func(w *codec.Writer, v any) error { encodeFeatureColumn(w, v.(FeatureColumn)); return nil },
		func(r *codec.Reader) (any, error) { return decodeFeatureColumn(r) })
	codec.RegisterValue(VecPair{}, "core.ColumnarVecPair",
		func(w *codec.Writer, v any) error {
			vp := v.(VecPair)
			encodeLabeledCols(w, vp.Train)
			encodeLabeledCols(w, vp.Test)
			w.Int(vp.Dim)
			w.Len(len(vp.Names))
			for _, n := range vp.Names {
				w.String(n)
			}
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var vp VecPair
			var err error
			if vp.Train, err = decodeLabeledCols(r); err != nil {
				return nil, err
			}
			if vp.Test, err = decodeLabeledCols(r); err != nil {
				return nil, err
			}
			if vp.Dim, err = r.Int(); err != nil {
				return nil, err
			}
			nn, err := r.Len()
			if err != nil {
				return nil, err
			}
			// Learners size their weights by Dim; it is the dictionary
			// length, so a payload whose Dim disagrees with its names is
			// corrupt rather than a huge allocation to attempt.
			if vp.Dim != nn {
				return nil, fmt.Errorf("core: vectorized dataset has Dim %d but %d feature names", vp.Dim, nn)
			}
			vp.Names = make([]string, nn)
			for i := range vp.Names {
				if vp.Names[i], err = r.String(); err != nil {
					return nil, err
				}
			}
			return vp, nil
		})
	codec.RegisterValue(Predictions{}, "core.Predictions",
		func(w *codec.Writer, v any) error {
			p := v.(Predictions)
			for _, arr := range [][]float64{p.Scores, p.Labels, p.Gold} {
				w.Len(len(arr))
				for _, x := range arr {
					w.Float64(x)
				}
			}
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var p Predictions
			for _, dst := range []*[]float64{&p.Scores, &p.Labels, &p.Gold} {
				n, err := r.Len()
				if err != nil {
					return nil, err
				}
				arr := make([]float64, n)
				for i := range arr {
					if arr[i], err = r.Float64(); err != nil {
						return nil, err
					}
				}
				*dst = arr
			}
			return p, nil
		})
	codec.RegisterValue(&ml.LinearModel{}, "ml.*LinearModel",
		func(w *codec.Writer, v any) error {
			m := v.(*ml.LinearModel)
			w.String(m.Kind)
			w.Float64(m.Bias)
			w.Len(len(m.Weights))
			for _, x := range m.Weights {
				w.Float64(x)
			}
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var m ml.LinearModel
			var err error
			if m.Kind, err = r.String(); err != nil {
				return nil, err
			}
			if m.Bias, err = r.Float64(); err != nil {
				return nil, err
			}
			n, err := r.Len()
			if err != nil {
				return nil, err
			}
			m.Weights = make([]float64, n)
			for i := range m.Weights {
				if m.Weights[i], err = r.Float64(); err != nil {
					return nil, err
				}
			}
			return &m, nil
		})
	codec.RegisterValue(&ml.NaiveBayes{}, "ml.*NaiveBayes",
		func(w *codec.Writer, v any) error {
			m := v.(*ml.NaiveBayes)
			w.Int(m.Dim)
			w.Float64(m.LogPrior[0])
			w.Float64(m.LogPrior[1])
			for c := 0; c < 2; c++ {
				w.Len(len(m.LogLik[c]))
				for _, x := range m.LogLik[c] {
					w.Float64(x)
				}
			}
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var m ml.NaiveBayes
			var err error
			if m.Dim, err = r.Int(); err != nil {
				return nil, err
			}
			if m.LogPrior[0], err = r.Float64(); err != nil {
				return nil, err
			}
			if m.LogPrior[1], err = r.Float64(); err != nil {
				return nil, err
			}
			for c := 0; c < 2; c++ {
				n, err := r.Len()
				if err != nil {
					return nil, err
				}
				ll := make([]float64, n)
				for i := range ll {
					if ll[i], err = r.Float64(); err != nil {
						return nil, err
					}
				}
				m.LogLik[c] = ll
			}
			return &m, nil
		})
	codec.RegisterValue(&ml.KMeans{}, "ml.*KMeans",
		func(w *codec.Writer, v any) error { encodeKMeans(w, v.(*ml.KMeans)); return nil },
		func(r *codec.Reader) (any, error) { return decodeKMeans(r) })
	codec.RegisterValue(ClusterResult{}, "core.ClusterResult",
		func(w *codec.Writer, v any) error {
			cr := v.(ClusterResult)
			encodeKMeans(w, cr.Model)
			w.Len(len(cr.TestAssign))
			for _, a := range cr.TestAssign {
				w.Int(a)
			}
			w.Float64(cr.Inertia)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var cr ClusterResult
			var err error
			if cr.Model, err = decodeKMeans(r); err != nil {
				return nil, err
			}
			n, err := r.Len()
			if err != nil {
				return nil, err
			}
			cr.TestAssign = make([]int, n)
			for i := range cr.TestAssign {
				if cr.TestAssign[i], err = r.Int(); err != nil {
					return nil, err
				}
			}
			if cr.Inertia, err = r.Float64(); err != nil {
				return nil, err
			}
			return cr, nil
		})
	codec.RegisterValue(ml.Metrics{}, "ml.Metrics",
		func(w *codec.Writer, v any) error {
			m := v.(ml.Metrics)
			w.Float64(m.Accuracy)
			w.Float64(m.Precision)
			w.Float64(m.Recall)
			w.Float64(m.F1)
			w.Float64(m.LogLoss)
			w.Int(m.N)
			return nil
		},
		func(r *codec.Reader) (any, error) {
			var m ml.Metrics
			var err error
			for _, dst := range []*float64{&m.Accuracy, &m.Precision, &m.Recall, &m.F1, &m.LogLoss} {
				if *dst, err = r.Float64(); err != nil {
					return nil, err
				}
			}
			if m.N, err = r.Int(); err != nil {
				return nil, err
			}
			return m, nil
		})
}

func encodeKMeans(w *codec.Writer, m *ml.KMeans) {
	w.Len(len(m.Centers))
	for _, c := range m.Centers {
		w.Len(len(c))
		for _, x := range c {
			w.Float64(x)
		}
	}
}

func decodeKMeans(r *codec.Reader) (*ml.KMeans, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	centers := make([][]float64, n)
	for i := range centers {
		k, err := r.Len()
		if err != nil {
			return nil, err
		}
		c := make([]float64, k)
		for j := range c {
			if c[j], err = r.Float64(); err != nil {
				return nil, err
			}
		}
		centers[i] = c
	}
	return &ml.KMeans{Centers: centers}, nil
}

// encodeFeatureColumn writes the names, then per half: the row count, each
// row's feature count, the total, every name id, every value.
func encodeFeatureColumn(w *codec.Writer, fc FeatureColumn) {
	w.Len(len(fc.Names))
	for _, n := range fc.Names {
		w.String(n)
	}
	for _, rows := range []FeatureRows{fc.Train, fc.Test} {
		n := rows.Len()
		w.Len(n)
		for i := 0; i < n; i++ {
			w.Len(int(rows.Start[i+1] - rows.Start[i]))
		}
		w.Len(len(rows.ID))
		for _, id := range rows.ID {
			w.Uvarint(uint64(id))
		}
		for _, x := range rows.Val {
			w.Float64(x)
		}
	}
}

// decodeFeatureColumn reverses encodeFeatureColumn into exact-size slabs.
// It rejects a payload whose row counts do not sum to its total or whose
// name ids fall outside the names, so featurize never indexes out of range.
func decodeFeatureColumn(r *codec.Reader) (FeatureColumn, error) {
	nn, err := r.Len()
	if err != nil {
		return FeatureColumn{}, err
	}
	fc := FeatureColumn{Names: make([]string, nn)}
	for i := range fc.Names {
		if fc.Names[i], err = r.String(); err != nil {
			return FeatureColumn{}, err
		}
	}
	for _, dst := range []*FeatureRows{&fc.Train, &fc.Test} {
		n, err := r.Len()
		if err != nil {
			return FeatureColumn{}, err
		}
		start := make([]int32, n+1)
		for i := 0; i < n; i++ {
			k, err := r.Len()
			if err != nil {
				return FeatureColumn{}, err
			}
			end := int(start[i]) + k
			if end > math.MaxInt32 {
				return FeatureColumn{}, fmt.Errorf("core: feature column row %d ends at %d, past int32", i, end)
			}
			start[i+1] = int32(end)
		}
		total, err := r.Len()
		if err != nil {
			return FeatureColumn{}, err
		}
		if total != int(start[n]) {
			return FeatureColumn{}, fmt.Errorf("core: feature column rows hold %d features, total says %d", start[n], total)
		}
		ids := make([]int32, total)
		for k := range ids {
			id, err := r.Uvarint()
			if err != nil {
				return FeatureColumn{}, err
			}
			if id >= uint64(nn) {
				return FeatureColumn{}, fmt.Errorf("core: feature column name id %d out of range (%d names)", id, nn)
			}
			ids[k] = int32(id)
		}
		vals := make([]float64, total)
		for k := range vals {
			if vals[k], err = r.Float64(); err != nil {
				return FeatureColumn{}, err
			}
		}
		*dst = FeatureRows{Start: start, ID: ids, Val: vals}
	}
	return fc, nil
}

// encodeLabeledCols writes one half of a VecPair column by column: the row
// count, every label, each row's nnz, the total, every index, every value.
func encodeLabeledCols(w *codec.Writer, set []data.Labeled) {
	w.Len(len(set))
	for _, ex := range set {
		w.Float64(ex.Y)
	}
	total := 0
	for _, ex := range set {
		w.Len(len(ex.X.Indices))
		total += len(ex.X.Indices)
	}
	w.Len(total)
	for _, ex := range set {
		for _, i := range ex.X.Indices {
			w.Int(i)
		}
	}
	for _, ex := range set {
		for _, x := range ex.X.Values {
			w.Float64(x)
		}
	}
}

// decodeLabeledCols reverses encodeLabeledCols. Indices and values land in
// one exact-size slab each, and every row is a capped window of them, so
// the decode costs a fixed handful of allocations however many rows there
// are. A row whose indices are negative or not strictly increasing is
// rejected.
func decodeLabeledCols(r *codec.Reader) ([]data.Labeled, error) {
	n, err := r.Len()
	if err != nil {
		return nil, err
	}
	out := make([]data.Labeled, n)
	for i := range out {
		if out[i].Y, err = r.Float64(); err != nil {
			return nil, err
		}
	}
	ends := make([]int, n)
	sum := 0
	for i := range ends {
		k, err := r.Len()
		if err != nil {
			return nil, err
		}
		sum += k
		ends[i] = sum
	}
	total, err := r.Len()
	if err != nil {
		return nil, err
	}
	if total != sum {
		return nil, fmt.Errorf("core: vectorized rows hold %d features, total says %d", sum, total)
	}
	idx := make([]int, total)
	for k := range idx {
		if idx[k], err = r.Int(); err != nil {
			return nil, err
		}
	}
	vals := make([]float64, total)
	for k := range vals {
		if vals[k], err = r.Float64(); err != nil {
			return nil, err
		}
	}
	start := 0
	for i, end := range ends {
		out[i].X = data.Vector{Indices: idx[start:end:end], Values: vals[start:end:end]}
		if err := out[i].X.Validate(); err != nil {
			return nil, fmt.Errorf("core: vectorized row %d: %w", i, err)
		}
		start = end
	}
	return out, nil
}
