package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/data"
)

// twoPassClean is Clean before it normalized each cell once: every train
// cell is normalized and counted into its column's map, then every cell of
// both halves is normalized again and imputed with that mode.
func twoPassClean(cp CollectionPair) CollectionPair {
	norm := func(s string) string {
		if switchIsNormalASCII(s) {
			return s
		}
		return strings.Join(strings.Fields(s), " ")
	}
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
		out := &data.Collection{Schema: c.Schema, Rows: make([]data.Row, len(c.Rows))}
		for i, row := range c.Rows {
			fields := make([]string, len(row.Fields))
			for j, f := range row.Fields {
				if fields[j] = norm(f); isMissing(fields[j]) {
					fields[j] = modes[j]
				}
			}
			out.Rows[i] = data.Row{Fields: fields}
		}
		return out
	}
	return CollectionPair{Train: side(cp.Train), Test: side(cp.Test)}
}

// switchIsNormalASCII is isNormalASCII as a per-byte switch.
func switchIsNormalASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf, c == '\t', c == '\n', c == '\v', c == '\f', c == '\r':
			return false
		case c == ' ' && (i == 0 || i == len(s)-1 || s[i+1] == ' '):
			return false
		}
	}
	return true
}

// TestIsNormalASCIIMatchesSwitchExhaustive compares the table-driven
// isNormalASCII with the switch on every string of up to 3 bytes over an
// alphabet of a letter, a marker, every ASCII whitespace byte, DEL and
// three non-ASCII bytes, and checks that a normal string is one
// strings.Fields/Join leaves unchanged.
func TestIsNormalASCIIMatchesSwitchExhaustive(t *testing.T) {
	alphabet := []byte{'a', '?', ' ', '\t', '\n', '\v', '\f', '\r', 0x7f, 0x80, 0xa0, 0xc3}
	checked := 0
	var walk func(b []byte)
	walk = func(b []byte) {
		s := string(b)
		got, want := isNormalASCII(s), switchIsNormalASCII(s)
		if got != want {
			t.Fatalf("isNormalASCII(%q) = %v, switch says %v", s, got, want)
		}
		if got && strings.Join(strings.Fields(s), " ") != s {
			t.Fatalf("isNormalASCII(%q) but Fields/Join changes it", s)
		}
		checked++
		if len(b) == 3 {
			return
		}
		for _, c := range alphabet {
			walk(append(b, c))
		}
	}
	walk(make([]byte, 0, 3))
	if want := 1 + 12 + 12*12 + 12*12*12; checked != want {
		t.Fatalf("checked %d strings, want %d", checked, want)
	}
}

// dirtyColumns: "mixed" holds numeric and one-hot values in one column,
// "cat" padded, tabbed and non-ASCII text, "both" missing markers on both
// halves, "testmiss" markers only in the test half, "num" clean numbers
// for a bucketizer, and "label" the target.
var dirtyColumns = []string{"mixed", "cat", "both", "testmiss", "num", "label"}

// dirtyCell draws one raw, unscanned cell for column col.
func dirtyCell(rng *rand.Rand, col string, test bool) string {
	pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
	markers := []string{"?", "NA", "N/A", "", " ? ", "\t", "  "}
	switch col {
	case "mixed":
		return pick("39", " 7 ", "-2.5", "1e3", "nan", "Sales", "Tech", "a\tb", "x  y", "Ünï", "inflow")
	case "cat":
		return pick("Sales", "  Sales ", "a  b", "a\tb", "a\r\nb", "x y", " Café", "\xff\xfe", "HS grad", "Tech", "\vTech\f")
	case "both":
		if rng.Intn(4) == 0 {
			return pick(markers...)
		}
		return pick("Married", "Single ", " Divorced", "Widowed")
	case "testmiss":
		if test && rng.Intn(3) == 0 {
			return pick(markers...)
		}
		return pick("Private", "Self-emp", "  Private", "Gov\t")
	case "num":
		return fmt.Sprint(rng.Intn(90))
	default:
		return pick("yes", "no")
	}
}

// dirtyPair draws a seeded collection pair of raw cells.
func dirtyPair(t *testing.T, rng *rand.Rand) CollectionPair {
	draw := func(n int, test bool) [][]string {
		rows := make([][]string, n)
		for i := range rows {
			for _, col := range dirtyColumns {
				rows[i] = append(rows[i], dirtyCell(rng, col, test))
			}
		}
		return rows
	}
	return smallPair(t, draw(1+rng.Intn(80), false), draw(rng.Intn(40), true), dirtyColumns...)
}

// TestCleanMatchesTwoPassOracle runs Clean next to the two-pass Clean and
// the Fields/Join oracle on seeded dirty collections and requires equal
// rows and byte-identical encodings; then every extractor over the cleaned
// pair must match the map-per-row extractors, column and featurize bytes.
func TestCleanMatchesTwoPassOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cp := dirtyPair(t, rng)
		out, err := NewClean().Apply([]any{cp})
		if err != nil {
			t.Fatal(err)
		}
		got := out.(CollectionPair)
		for _, ref := range []CollectionPair{twoPassClean(cp), oracleClean(cp)} {
			if !reflect.DeepEqual(rowsOf(got.Train), rowsOf(ref.Train)) || !reflect.DeepEqual(rowsOf(got.Test), rowsOf(ref.Test)) {
				t.Fatalf("seed %d: cleaned rows differ\ngot  %q\nwant %q", seed, rowsOf(got.Test), rowsOf(ref.Test))
			}
			for _, half := range [][2]*data.Collection{{got.Train, ref.Train}, {got.Test, ref.Test}} {
				if !bytes.Equal(mustEncode(t, half[0]), mustEncode(t, half[1])) {
					t.Fatalf("seed %d: cleaned encoding differs", seed)
				}
			}
		}
		bins := 1 + rng.Intn(12)
		ops := []Operator{Field("mixed"), Field("cat"), Field("both"), Field("testmiss"), Bucket("num", bins), Cross("cat", "mixed", "testmiss")}
		oracles := []oracleExtractor{oracleField("mixed"), oracleField("cat"), oracleField("both"), oracleField("testmiss"), oracleBucket("num", bins), oracleCross("cat", "mixed", "testmiss")}
		checkColumns(t, got, "label", ops, oracles)
		// Raw cells reach the extractors too when no Clean runs.
		checkColumns(t, cp, "label", ops[:2], oracles[:2])
	}
}

// TestCleanImputesTestOnlyMissingColumn: a column whose markers appear
// only in the test half still takes its training-set mode there.
func TestCleanImputesTestOnlyMissingColumn(t *testing.T) {
	cp := smallPair(t,
		[][]string{{"a", "Private"}, {"b", "Gov"}, {"c", " Private "}},
		[][]string{{"d", "?"}, {"e", "\t"}},
		"x", "work")
	out, err := NewClean().Apply([]any{cp})
	if err != nil {
		t.Fatal(err)
	}
	got := out.(CollectionPair)
	if want := [][]string{{"d", "Private"}, {"e", "Private"}}; !reflect.DeepEqual(rowsOf(got.Test), want) {
		t.Errorf("test rows = %q, want %q", rowsOf(got.Test), want)
	}
}
