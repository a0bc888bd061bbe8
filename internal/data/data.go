// Package data provides HELIX's pre-processing data structures (§2.1): rows
// with named fields, partitioned data collections, CSV scanning, and the
// human-readable feature representation that is automatically converted
// into an ML-compatible sparse-vector format at the learning boundary.
package data

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Row is one record: ordered field values addressed by a shared Schema.
// Fields are stored as strings (the human-readable format the paper
// emphasizes); numeric interpretation happens at feature-extraction time.
type Row struct {
	Fields []string
}

// Schema maps field names to positions within a Row.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema from column names. Duplicate names error.
func NewSchema(names ...string) (*Schema, error) {
	s := &Schema{names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("data: duplicate column %q", n)
		}
		s.index[n] = i
	}
	return s, nil
}

// MustSchema is NewSchema panicking on error, for static schemas.
func MustSchema(names ...string) *Schema {
	s, err := NewSchema(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns the column names in order. Callers must not mutate.
func (s *Schema) Names() []string { return s.names }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.names) }

// Index returns the position of a column, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// column is Index with an error naming an unknown column.
func (s *Schema) column(name string) (int, error) {
	if i, ok := s.index[name]; ok {
		return i, nil
	}
	return -1, fmt.Errorf("data: unknown column %q", name)
}

// Collection is HELIX's DataCollection: a schema plus rows. Collections are
// value-like: operators produce new collections rather than mutating inputs,
// which is what makes materialized intermediates safe to reuse.
type Collection struct {
	Schema *Schema
	Rows   []Row
}

// NewCollection allocates an empty collection over the schema.
func NewCollection(s *Schema) *Collection { return &Collection{Schema: s} }

// Append adds a row, validating arity.
func (c *Collection) Append(fields ...string) error {
	if len(fields) != c.Schema.Len() {
		return fmt.Errorf("data: row has %d fields, schema has %d", len(fields), c.Schema.Len())
	}
	c.Rows = append(c.Rows, Row{Fields: append([]string(nil), fields...)})
	return nil
}

// Get returns row i's value for the named column.
func (c *Collection) Get(i int, col string) (string, error) {
	idx, err := c.Schema.column(col)
	if err != nil {
		return "", err
	}
	return c.At(i, idx)
}

// At returns row i's value at column position idx, for callers that
// resolved the column once instead of by name per row.
func (c *Collection) At(i, idx int) (string, error) {
	if i < 0 || i >= len(c.Rows) {
		return "", fmt.Errorf("data: row %d out of range (%d rows)", i, len(c.Rows))
	}
	return c.Rows[i].Fields[idx], nil
}

// Len returns the number of rows.
func (c *Collection) Len() int { return len(c.Rows) }

// Partition splits the collection into k contiguous shards whose sizes
// differ by at most one row; empty shards are returned when rows < k. The
// execution engine hands shards to its worker pool.
func (c *Collection) Partition(k int) []*Collection {
	if k <= 0 {
		k = 1
	}
	out := make([]*Collection, k)
	n := len(c.Rows)
	base, extra := n/k, n%k
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		out[i] = &Collection{Schema: c.Schema, Rows: c.Rows[start : start+size]}
		start += size
	}
	return out
}

// ParseCSVLine splits a CSV line honoring double quotes ("" escapes a quote
// inside a quoted field). It covers the subset of RFC 4180 needed for the
// census-style inputs; embedded newlines are not supported because the
// scanner feeds it single lines.
func ParseCSVLine(line string) []string {
	var out []string
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(line); i++ {
		ch := line[i]
		switch {
		case inQuote && ch == '"':
			if i+1 < len(line) && line[i+1] == '"' {
				b.WriteByte('"')
				i++
			} else {
				inQuote = false
			}
		case ch == '"':
			inQuote = true
		case ch == ',' && !inQuote:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteByte(ch)
		}
	}
	out = append(out, b.String())
	return out
}

// ScanCSV parses CSV text (one record per line, no header) into a collection
// over the given schema. Blank lines are skipped; arity mismatches error
// with the line number. Every row's fields are sub-slices of one backing
// []string, and a line without quotes yields substrings of text rather than
// copies.
func ScanCSV(text string, schema *Schema) (*Collection, error) {
	ncols := schema.Len()
	maxRows := strings.Count(text, "\n") + 1
	slab := make([]string, 0, maxRows*ncols)
	c := &Collection{Schema: schema, Rows: make([]Row, 0, maxRows)}
	for lineNo, rest := 1, text; ; lineNo++ {
		line, tail, more := strings.Cut(rest, "\n")
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) != "" {
			start := len(slab)
			if strings.IndexByte(line, '"') < 0 {
				if n := strings.Count(line, ",") + 1; n != ncols {
					return nil, fmt.Errorf("data: line %d has %d fields, want %d", lineNo, n, ncols)
				}
				for {
					field, after, found := strings.Cut(line, ",")
					slab = append(slab, strings.TrimSpace(field))
					if !found {
						break
					}
					line = after
				}
			} else {
				fields := ParseCSVLine(line)
				if len(fields) != ncols {
					return nil, fmt.Errorf("data: line %d has %d fields, want %d", lineNo, len(fields), ncols)
				}
				for _, f := range fields {
					slab = append(slab, strings.TrimSpace(f))
				}
			}
			c.Rows = append(c.Rows, Row{Fields: slab[start:len(slab):len(slab)]})
		}
		if !more {
			return c, nil
		}
		rest = tail
	}
}

// ToCSV renders the collection back to CSV (no header), quoting fields that
// contain commas or quotes. Round-trips with ScanCSV.
func (c *Collection) ToCSV() string {
	var b strings.Builder
	for _, r := range c.Rows {
		for i, f := range r.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(f, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(f, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(f)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FeatureMap is the human-readable per-example feature representation the
// DSL's extractors produce: feature name -> numeric value. Categorical
// extractors emit one-hot names like "occupation=Sales".
type FeatureMap map[string]float64

// Example is one training/test instance before vectorization.
type Example struct {
	Features FeatureMap
	// Label is the supervised target; convention: binary tasks use 0/1.
	Label float64
	// HasLabel distinguishes unlabeled (prediction-time) examples.
	HasLabel bool
}

// ExampleSet is a dataset of feature-mapped examples.
type ExampleSet struct {
	Examples []Example
}

// Len returns the number of examples.
func (e *ExampleSet) Len() int { return len(e.Examples) }

// Dictionary assigns dense indices to feature names so human-readable maps
// convert into ML-compatible sparse vectors ("automatically converts it into
// a compatible format for ML", §2.1). Deterministic: names are indexed in
// first-seen order during Fit.
type Dictionary struct {
	index map[string]int
	names []string
	// frozen stops new names being added (test-time behaviour, so unseen
	// features are dropped rather than growing the space).
	frozen bool
}

// NewDictionary returns an empty, unfrozen dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{index: make(map[string]int)}
}

// Fit indexes every feature name in the set (in row order, then sorted name
// order within a row for determinism).
func (d *Dictionary) Fit(set *ExampleSet) {
	for _, ex := range set.Examples {
		names := make([]string, 0, len(ex.Features))
		for n := range ex.Features {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d.Add(n)
		}
	}
}

// Add indexes a single name, returning its index (existing or new). Frozen
// dictionaries return -1 for unseen names.
func (d *Dictionary) Add(name string) int {
	if i, ok := d.index[name]; ok {
		return i
	}
	if d.frozen {
		return -1
	}
	i := len(d.names)
	d.index[name] = i
	d.names = append(d.names, name)
	return i
}

// Freeze stops the dictionary growing; vectorizing unseen features drops them.
func (d *Dictionary) Freeze() { d.frozen = true }

// Len returns the number of indexed features.
func (d *Dictionary) Len() int { return len(d.names) }

// Name returns the feature name at index i.
func (d *Dictionary) Name(i int) (string, error) {
	if i < 0 || i >= len(d.names) {
		return "", fmt.Errorf("data: feature index %d out of range (%d features)", i, len(d.names))
	}
	return d.names[i], nil
}

// Index returns a name's index or -1.
func (d *Dictionary) Index(name string) int {
	if i, ok := d.index[name]; ok {
		return i
	}
	return -1
}

// Vector is a sparse feature vector with strictly increasing indices.
type Vector struct {
	Indices []int
	Values  []float64
}

// Dot computes the inner product with a dense weight slice. Indices beyond
// len(w) contribute zero, so models trained on a smaller space stay usable.
func (v Vector) Dot(w []float64) float64 {
	var s float64
	for k, i := range v.Indices {
		if i < len(w) {
			s += w[i] * v.Values[k]
		}
	}
	return s
}

// Validate checks the invariant the learners rely on: as many values as
// indices, and indices non-negative and strictly increasing. Consumers
// guard only the upper bound (an index beyond the weights contributes
// zero), so a decoded vector must pass this before it is used.
func (v Vector) Validate() error {
	if len(v.Indices) != len(v.Values) {
		return fmt.Errorf("data: vector has %d indices and %d values", len(v.Indices), len(v.Values))
	}
	prev := -1
	for _, i := range v.Indices {
		if i <= prev {
			return fmt.Errorf("data: vector index %d after %d: indices must be non-negative and strictly increasing", i, prev)
		}
		prev = i
	}
	return nil
}

// L2 returns the squared Euclidean norm.
func (v Vector) L2() float64 {
	var s float64
	for _, x := range v.Values {
		s += x * x
	}
	return s
}

// Vectorize converts a feature map through the dictionary into a sparse
// vector with sorted indices. Unseen names in a frozen dictionary are
// dropped.
func (d *Dictionary) Vectorize(fm FeatureMap) Vector {
	type kv struct {
		i int
		v float64
	}
	tmp := make([]kv, 0, len(fm))
	for name, val := range fm {
		if i := d.Add(name); i >= 0 {
			tmp = append(tmp, kv{i, val})
		}
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a].i < tmp[b].i })
	v := Vector{Indices: make([]int, len(tmp)), Values: make([]float64, len(tmp))}
	for k, e := range tmp {
		v.Indices[k] = e.i
		v.Values[k] = e.v
	}
	return v
}

// Labeled is a vectorized example.
type Labeled struct {
	X Vector
	Y float64
}

// ParseFloat converts a field to float64 with a column-aware error.
func ParseFloat(field, col string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
	if err != nil {
		return 0, fmt.Errorf("data: column %q: %q is not numeric", col, field)
	}
	return f, nil
}
