package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/dag"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/store"
)

// codecName is the registered name of v's codec.
func codecName(v any) string {
	switch v.(type) {
	case FeatureColumn:
		return "core.CSRFeatureColumn"
	case VecPair:
		return "core.ColumnarVecPair"
	}
	return ""
}

// withPayload re-assembles v's store encoding around another payload: the
// format tag, value tag and codec name of v's encoding, then body. name, if
// not empty, replaces the codec name (names here are < 128 bytes, so their
// length is one varint byte).
func withPayload(t *testing.T, v any, name string, body []byte) []byte {
	t.Helper()
	raw := mustEncode(t, v)
	cur := codecName(v)
	at := bytes.Index(raw, []byte(cur))
	if at != 3 || int(raw[2]) != len(cur) {
		t.Fatalf("unexpected encoding header % x", raw[:min(len(raw), 8)])
	}
	if name == "" {
		name = cur
	}
	out := append([]byte(nil), raw[:2]...)
	out = append(out, byte(len(name)))
	out = append(out, name...)
	return append(out, body...)
}

// decodeErr decodes raw through the store, returning the error.
func decodeErr(raw []byte) error {
	_, err := store.Decode(raw)
	return err
}

// A CollectionPair whose row is shorter than its schema would reach
// Field(...).Apply and panic with an index out of range, so the decoder
// rejects it.
func TestDecodeRejectsShortCollectionRow(t *testing.T) {
	s := data.MustSchema("age", "edu", "occ")
	bad := &data.Collection{Schema: s, Rows: []data.Row{{Fields: []string{"39"}}}}
	good := &data.Collection{Schema: s, Rows: []data.Row{{Fields: []string{"39", "BS", "Sales"}}}}
	for _, cp := range []CollectionPair{{Train: bad, Test: good}, {Train: good, Test: bad}} {
		if err := decodeErr(mustEncode(t, cp)); err == nil {
			t.Error("CollectionPair with a 1-field row under a 3-column schema decoded")
		}
	}
	if err := decodeErr(mustEncode(t, CollectionPair{Train: good, Test: good})); err != nil {
		t.Errorf("valid pair rejected: %v", err)
	}
}

// featureBody writes a FeatureColumn payload over names with one row in
// the train half, declaring count features in that row and total in the
// half, then the ids (one value each); the test half is empty.
func featureBody(names []string, count, total uint64, ids ...uint64) []byte {
	var w codec.Writer
	w.Len(len(names))
	for _, n := range names {
		w.String(n)
	}
	w.Len(1)
	w.Uvarint(count)
	w.Uvarint(total)
	for _, id := range ids {
		w.Uvarint(id)
	}
	for range ids {
		w.Float64(1)
	}
	w.Len(0)
	w.Len(0)
	return w.Bytes()
}

// The FeatureColumn decoder's row starts are monotone by construction
// (per-row counts are unsigned), must end at the number of ids, and every id
// must name one of the column's names.
func TestDecodeFeatureColumnInvariants(t *testing.T) {
	names := []string{"a", "b"}
	if err := decodeErr(withPayload(t, FeatureColumn{}, "", featureBody(names, 2, 2, 0, 1))); err != nil {
		t.Fatalf("valid column rejected: %v", err)
	}
	for name, body := range map[string][]byte{
		"row counts past the total": featureBody(names, 3, 2, 0, 1),
		"row counts short of total": featureBody(names, 1, 2, 0, 1),
		"id out of range":           featureBody(names, 2, 2, 0, 2),
		"id past int32":             featureBody(names, 1, 1, 1<<40),
	} {
		if err := decodeErr(withPayload(t, FeatureColumn{}, "", body)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// The VecPair decoder rejects negative and non-increasing indices, row
// counts that disagree with the total, and a Dim that is not the number of
// feature names.
func TestDecodeVecPairInvariants(t *testing.T) {
	for _, idx := range [][]int{{-1, 2}, {2, 2}, {3, 1}} {
		vp := VecPair{
			Train: []data.Labeled{{X: data.Vector{Indices: []int{0}, Values: []float64{1}}}, {X: data.Vector{Indices: idx, Values: []float64{1, 2}}}},
			Dim:   4,
			Names: []string{"a", "b", "c", "d"},
		}
		if err := decodeErr(mustEncode(t, vp)); err == nil {
			t.Errorf("VecPair with indices %v decoded", idx)
		}
	}
	// One train row claiming 2 features under a total of 1.
	var w codec.Writer
	w.Len(1)
	w.Float64(1)
	w.Len(2)
	w.Len(1)
	w.Int(0)
	w.Float64(1)
	w.Len(0) // empty test half
	w.Len(0)
	w.Int(0) // Dim, and no names
	w.Len(0)
	if err := decodeErr(withPayload(t, VecPair{}, "", w.Bytes())); err == nil {
		t.Error("VecPair whose row counts exceed its total decoded")
	}
	// Learners size their weights by Dim, which must match the names.
	if err := decodeErr(mustEncode(t, VecPair{Dim: 1 << 40})); err == nil {
		t.Error("VecPair with Dim 2^40 and no names decoded")
	}
}

// retire relabels v's encoding with a retired codec name.
func retire(t *testing.T, v any, name string) []byte {
	t.Helper()
	raw := mustEncode(t, v)
	return withPayload(t, v, name, raw[3+len(codecName(v)):])
}

// Payloads written under the map-per-row layouts' names do not decode: the
// name resolves to no codec, so the old bytes are never misread.
func TestRetiredCodecNamesDoNotDecode(t *testing.T) {
	fc := columnFromMaps([]data.FeatureMap{{"age": 39}}, []data.FeatureMap{{"age": 22}})
	vp := VecPair{Train: []data.Labeled{{X: data.Vector{Indices: []int{0}, Values: []float64{1}}, Y: 1}}, Dim: 1, Names: []string{"age"}}
	for _, c := range []struct {
		v    any
		name string
	}{{fc, "core.FeatureColumn"}, {vp, "core.VecPair"}} {
		if err := decodeErr(retire(t, c.v, codecName(c.v))); err != nil {
			t.Fatalf("%T under its own name: %v", c.v, err)
		}
		if err := decodeErr(retire(t, c.v, c.name)); !errors.Is(err, codec.ErrUnregistered) {
			t.Errorf("%T under %q: err = %v, want ErrUnregistered", c.v, c.name, err)
		}
	}
}

// A store holding census values under the retired names: every such load
// fails, is counted in CorruptFrames, recovers by recompute and is
// re-materialized, so the next iteration loads the new layout. Each layout
// is relabelled just before the edit that plans its load: a failed load's
// recovery probes the store for every ancestor, so a retired ancestor
// present earlier would be dropped as undecodable before any edit planned
// to load it.
func TestSessionRecomputesRetiredLayouts(t *testing.T) {
	s, err := Open(Options{StoreDir: t.TempDir(), Policy: opt.MaterializeAll{}, Reuse: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(censusWorkflow(0.1, "accuracy", false))
	if err != nil {
		t.Fatal(err)
	}
	hit := map[string]bool{}
	retired := map[string]string{} // key -> the retired name its bytes carry
	for _, step := range []struct {
		edit        *Workflow
		layout, old string // stored values of layout are relabelled old first
	}{
		// ML edit: loads the vectorized dataset.
		{censusWorkflow(0.3, "accuracy", false), "core.ColumnarVecPair", "core.VecPair"},
		// Prep edit: loads the unchanged feature columns.
		{censusWorkflow(0.3, "accuracy", true), "core.CSRFeatureColumn", "core.FeatureColumn"},
	} {
		edit := step.edit
		// Relabel every stored value of the layout with its retired name.
		for _, key := range rep.Keys {
			raw, err := s.Store().GetBytes(key)
			if err != nil {
				continue
			}
			v, err := store.Decode(raw)
			if err != nil {
				continue // relabelled for an earlier edit that did not load it
			}
			if codecName(v) != step.layout {
				continue
			}
			if err := s.Store().Delete(key); err != nil {
				t.Fatal(err)
			}
			if err := s.Store().PutBytes(key, retire(t, v, step.old)); err != nil {
				t.Fatal(err)
			}
			retired[key] = step.old
		}
		want := storeless(t, edit)
		if rep, err = s.Run(edit); err != nil {
			t.Fatal(err)
		}
		loadedRetired := 0
		for id, st := range rep.Plan.States {
			old, ok := retired[rep.Keys[id]]
			if st != opt.Load || !ok {
				continue
			}
			loadedRetired++
			hit[old] = true
			delete(retired, rep.Keys[id])
			if !rep.Nodes[id].Materialized {
				t.Errorf("%s: retired %s not re-materialized", rep.Graph.Node(dag.NodeID(id)).Name, old)
			}
			raw, err := s.Store().GetBytes(rep.Keys[id])
			if err != nil || decodeErr(raw) != nil {
				t.Errorf("%s: store still holds an undecodable value (%v)", rep.Graph.Node(dag.NodeID(id)).Name, err)
			}
		}
		if loadedRetired == 0 || rep.CorruptFrames < int64(loadedRetired) || rep.Recomputes < int64(loadedRetired) {
			t.Errorf("planned %d retired loads; corrupt %d, recomputes %d", loadedRetired, rep.CorruptFrames, rep.Recomputes)
		}
		for _, out := range []string{"predictions", "checked"} {
			if !bytes.Equal(mustEncode(t, rep.Outputs[out]), mustEncode(t, want[out])) {
				t.Errorf("recovered %s differs from a store-less run", out)
			}
		}
	}
	for _, old := range []string{"core.FeatureColumn", "core.VecPair"} {
		if !hit[old] {
			t.Errorf("no iteration planned a load of a retired %s", old)
		}
	}
	// What the last edit loads is stored under the new names now: another
	// ML edit loads it without a single corrupt payload.
	if rep, err = s.Run(censusWorkflow(0.7, "accuracy", true)); err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFrames != 0 {
		t.Errorf("corrupt frames after re-materialization: %d", rep.CorruptFrames)
	}
}

// storeless runs w in a session without a store and returns its outputs.
func storeless(t *testing.T, w *Workflow) map[string]any {
	t.Helper()
	s, err := Open(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Outputs
}
