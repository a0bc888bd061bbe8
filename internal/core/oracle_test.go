package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/data"
)

// The map-per-row census operators, kept as the single reference the
// columnar operators are checked against (oracle_equiv_test.go): one
// []string per scanned line, strings.Fields/Join on every cleaned cell, one
// data.FeatureMap per extracted row, a fresh per-row map and name sort in
// featurize. Nothing here is tuned; it is written to be obviously right.

// oracleScanCSV splits every line with ParseCSVLine and trims each field.
func oracleScanCSV(text string, schema *data.Schema) (*data.Collection, error) {
	c := data.NewCollection(schema)
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := data.ParseCSVLine(line)
		if len(fields) != schema.Len() {
			return nil, fmt.Errorf("data: line %d has %d fields, want %d", lineNo+1, len(fields), schema.Len())
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		c.Rows = append(c.Rows, data.Row{Fields: fields})
	}
	return c, nil
}

// oracleClean normalizes every cell with strings.Fields/Join and imputes
// missing markers with the training half's per-column mode.
func oracleClean(cp CollectionPair) CollectionPair {
	norm := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	ncols := cp.Train.Schema.Len()
	counts := make([]map[string]int, ncols)
	for j := range counts {
		counts[j] = make(map[string]int)
	}
	for _, row := range cp.Train.Rows {
		for j, f := range row.Fields {
			if v := norm(f); !isMissing(v) {
				counts[j][v]++
			}
		}
	}
	modes := make([]string, ncols)
	for j, c := range counts {
		best, bestN := "", -1
		for v, n := range c {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		modes[j] = best
	}
	side := func(c *data.Collection) *data.Collection {
		out := data.NewCollection(c.Schema)
		for _, row := range c.Rows {
			fields := make([]string, len(row.Fields))
			for j, f := range row.Fields {
				if fields[j] = norm(f); isMissing(fields[j]) {
					fields[j] = modes[j]
				}
			}
			out.Rows = append(out.Rows, data.Row{Fields: fields})
		}
		return out
	}
	return CollectionPair{Train: side(cp.Train), Test: side(cp.Test)}
}

// oracleExtractor emits one row's features into a fresh map. fit sees the
// training collection first.
type oracleExtractor struct {
	fit     func(c *data.Collection) error
	extract func(c *data.Collection, i int, fm data.FeatureMap) error
}

// oracleField: numeric when the cell parses, else a one-hot "col=value".
func oracleField(col string) oracleExtractor {
	return oracleExtractor{extract: func(c *data.Collection, i int, fm data.FeatureMap) error {
		v, err := c.Get(i, col)
		if err != nil {
			return err
		}
		if x, err := data.ParseFloat(v, col); err == nil {
			fm[col] = x
			return nil
		}
		fm[col+"="+v] = 1
		return nil
	}}
}

// oracleBucket: equi-width bins over the training range, clamped.
func oracleBucket(col string, bins int) oracleExtractor {
	var lo, width float64
	return oracleExtractor{
		fit: func(c *data.Collection) error {
			hi := math.Inf(-1)
			lo = math.Inf(1)
			for i := range c.Rows {
				v, err := c.Get(i, col)
				if err != nil {
					return err
				}
				x, err := data.ParseFloat(v, col)
				if err != nil {
					return err
				}
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			if c.Len() == 0 {
				lo, hi = 0, 1
			}
			width = (hi - lo) / float64(bins)
			if width == 0 {
				width = 1
			}
			return nil
		},
		extract: func(c *data.Collection, i int, fm data.FeatureMap) error {
			v, err := c.Get(i, col)
			if err != nil {
				return err
			}
			x, err := data.ParseFloat(v, col)
			if err != nil {
				return err
			}
			k := int((x - lo) / width)
			if k < 0 {
				k = 0
			}
			if k >= bins {
				k = bins - 1
			}
			fm[fmt.Sprintf("%s_bucket=%d", col, k)] = 1
			return nil
		},
	}
}

// oracleCross: one one-hot "c1xc2=v1|v2" feature per row.
func oracleCross(cols ...string) oracleExtractor {
	return oracleExtractor{extract: func(c *data.Collection, i int, fm data.FeatureMap) error {
		parts := make([]string, len(cols))
		for k, col := range cols {
			v, err := c.Get(i, col)
			if err != nil {
				return err
			}
			parts[k] = v
		}
		fm[strings.Join(cols, "x")+"="+strings.Join(parts, "|")] = 1
		return nil
	}}
}

// oracleColumn is one extractor's maps over both halves.
type oracleColumn struct {
	Train, Test []data.FeatureMap
}

// oracleExtract fits ex on the train half and runs it over every row.
func oracleExtract(cp CollectionPair, ex oracleExtractor) (oracleColumn, error) {
	if ex.fit != nil {
		if err := ex.fit(cp.Train); err != nil {
			return oracleColumn{}, err
		}
	}
	side := func(c *data.Collection) ([]data.FeatureMap, error) {
		out := make([]data.FeatureMap, c.Len())
		for i := range out {
			out[i] = make(data.FeatureMap)
			if err := ex.extract(c, i, out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var col oracleColumn
	var err error
	if col.Train, err = side(cp.Train); err != nil {
		return col, err
	}
	col.Test, err = side(cp.Test)
	return col, err
}

// oracleFeaturize vectorizes through a dictionary filled in row order, then
// column order, then sorted name order within a row; a name emitted twice in
// a row keeps the later column's value. The test half uses the frozen train
// dictionary, and every feature is scaled by its train max-abs.
func oracleFeaturize(cp CollectionPair, labelCol, positive string, columns []oracleColumn) (VecPair, error) {
	label := &data.BinaryLabel{Col: labelCol, Positive: positive}
	dict := data.NewDictionary()
	vectorize := func(c *data.Collection, side func(oracleColumn) []data.FeatureMap) ([]data.Labeled, error) {
		out := make([]data.Labeled, c.Len())
		for i := range out {
			scratch := make(map[int]float64)
			for _, col := range columns {
				fm := side(col)[i]
				names := make([]string, 0, len(fm))
				for n := range fm {
					names = append(names, n)
				}
				sort.Strings(names)
				for _, n := range names {
					if idx := dict.Add(n); idx >= 0 {
						scratch[idx] = fm[n]
					}
				}
			}
			var v data.Vector
			for idx := range scratch {
				v.Indices = append(v.Indices, idx)
			}
			sort.Ints(v.Indices)
			for _, idx := range v.Indices {
				v.Values = append(v.Values, scratch[idx])
			}
			y, err := label.ExtractLabel(c, i)
			if err != nil {
				return nil, err
			}
			out[i] = data.Labeled{X: v, Y: y}
		}
		return out, nil
	}
	train, err := vectorize(cp.Train, func(c oracleColumn) []data.FeatureMap { return c.Train })
	if err != nil {
		return VecPair{}, err
	}
	dict.Freeze()
	test, err := vectorize(cp.Test, func(c oracleColumn) []data.FeatureMap { return c.Test })
	if err != nil {
		return VecPair{}, err
	}
	names := make([]string, dict.Len())
	for i := range names {
		names[i], _ = dict.Name(i)
	}
	maxAbs := make([]float64, dict.Len())
	for _, ex := range train {
		for k, i := range ex.X.Indices {
			if v := math.Abs(ex.X.Values[k]); v > maxAbs[i] {
				maxAbs[i] = v
			}
		}
	}
	for _, set := range [][]data.Labeled{train, test} {
		for _, ex := range set {
			for k, i := range ex.X.Indices {
				if maxAbs[i] > 0 {
					ex.X.Values[k] /= maxAbs[i]
				}
			}
		}
	}
	return VecPair{Train: train, Test: test, Dim: dict.Len(), Names: names}, nil
}

// mapColumnBuilder is the map-per-row column builder: each row arrives as
// a map, its names are sorted, and every name is interned into an id on
// first sight. Rows may carry any number of features.
type mapColumnBuilder struct {
	names    []string
	ids      map[string]int32
	rowNames []string
}

// appendRow adds fm as the next row, its names in sorted order.
func (b *mapColumnBuilder) appendRow(rows *FeatureRows, fm data.FeatureMap) {
	b.rowNames = b.rowNames[:0]
	for name := range fm {
		b.rowNames = append(b.rowNames, name)
	}
	slices.Sort(b.rowNames)
	for _, name := range b.rowNames {
		id, ok := b.ids[name]
		if !ok {
			id = int32(len(b.names))
			b.ids[name] = id
			b.names = append(b.names, name)
		}
		rows.ID = append(rows.ID, id)
		rows.Val = append(rows.Val, fm[name])
	}
	rows.Start = append(rows.Start, int32(len(rows.ID)))
}

// columnFromMaps lays per-row maps out as a FeatureColumn through the
// map-per-row builder.
func columnFromMaps(train, test []data.FeatureMap) FeatureColumn {
	b := mapColumnBuilder{ids: make(map[string]int32)}
	side := func(maps []data.FeatureMap) FeatureRows {
		rows := FeatureRows{Start: []int32{0}}
		for _, fm := range maps {
			b.appendRow(&rows, fm)
		}
		return rows
	}
	tr := side(train)
	return FeatureColumn{Names: b.names, Train: tr, Test: side(test)}
}

// rowMaps reads one half of a FeatureColumn back as per-row maps.
func rowMaps(fc FeatureColumn, rows FeatureRows) []data.FeatureMap {
	out := make([]data.FeatureMap, rows.Len())
	for i := range out {
		out[i] = make(data.FeatureMap)
		for k := rows.Start[i]; k < rows.Start[i+1]; k++ {
			out[i][fc.Names[rows.ID[k]]] = rows.Val[k]
		}
	}
	return out
}
