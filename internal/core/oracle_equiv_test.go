package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/data"
	"repro/internal/store"
)

// Cell vocabularies for the seeded equivalence collections. Numeric-looking
// cells cover everything strconv.ParseFloat accepts or nearly accepts
// (signs, points, exponents, hex, inf/nan spellings, underscores); the
// categorical ones start with the same letters as "inf" and "nan" so the
// parse-skipping prefix test is exercised both ways.
var (
	oracleNumeric = []string{
		"0", "7", "39", "-2.5", "+1", ".5", "1e3", "nan", "NaN", "Inf", "-inf",
		"+Infinity", "0x1p-2", "1_000", "-", "+", ".", "1.2.3", "12abc",
	}
	oracleCategorical = []string{
		"Sales", "Tech", "inflow", "Never-married", "nope", "Indigo", "n/a",
		"Café", "a b", "x|y", "?", "NA", "N/A", "",
	}
	// oracleTestOnly never appears in a train half: its one-hot names are
	// seen only after the dictionary froze.
	oracleTestOnly = []string{"Unseen", "inverse", "Nadir"}
	// oraclePadded are cells Clean has to repair: outer and doubled spaces,
	// tabs, a non-breaking space, and non-ASCII text.
	oraclePadded = []string{"  Sales ", "a  b", "a\tb", "x\u00a0y", " Café", "Ü  ber", "\t?", "HS grad"}
)

var oracleColumns = []string{"age", "num", "cat", "k", "k=v", "label"}

// oracleCell draws one cell for column col.
func oracleCell(rng *rand.Rand, col string, test bool) string {
	pick := func(vs []string) string { return vs[rng.Intn(len(vs))] }
	switch col {
	case "age":
		return fmt.Sprint(17 + rng.Intn(60))
	case "num":
		if rng.Intn(3) == 0 {
			return pick(oracleNumeric)
		}
		return pick(oracleCategorical)
	case "cat":
		if test && rng.Intn(4) == 0 {
			return pick(oracleTestOnly)
		}
		if rng.Intn(4) == 0 {
			return pick(oraclePadded)
		}
		return pick(oracleCategorical)
	case "k":
		// "k" emits the one-hot name "k=v", which column "k=v" emits
		// with a numeric value: one name from two columns.
		return pick([]string{"v", "v", "w"})
	case "k=v":
		return fmt.Sprint(rng.Intn(9))
	default:
		return pick([]string{"yes", "no"})
	}
}

// oracleCSV renders rows as CSV text: cells with a comma or quote are
// quoted, some plain cells are quoted anyway, some are padded with spaces
// (ScanCSV trims them), and blank and CRLF lines are mixed in.
func oracleCSV(rng *rand.Rand, rows int, test bool) string {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		for j, col := range oracleColumns {
			if j > 0 {
				b.WriteByte(',')
			}
			v := oracleCell(rng, col, test)
			if col == "num" || col == "cat" {
				if rng.Intn(10) == 0 {
					v += ", with comma"
				}
				if rng.Intn(15) == 0 {
					v = `say "` + v + `"`
				}
			}
			switch {
			case strings.ContainsAny(v, `,"`) || rng.Intn(8) == 0:
				b.WriteString(`"` + strings.ReplaceAll(v, `"`, `""`) + `"`)
			case rng.Intn(8) == 0:
				b.WriteString("  " + v + " ")
			default:
				b.WriteString(v)
			}
		}
		switch rng.Intn(10) {
		case 0:
			b.WriteString("\r\n")
		case 1:
			b.WriteString("\n  \n")
		default:
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// rowsOf flattens a collection's rows for comparison.
func rowsOf(c *data.Collection) [][]string {
	out := make([][]string, len(c.Rows))
	for i, r := range c.Rows {
		out[i] = r.Fields
	}
	return out
}

// mustEncode is store.Encode failing the test on error.
func mustEncode(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := store.Encode(v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	return raw
}

// checkColumns runs each extractor both ways over cp and featurizes the
// results both ways, failing on any byte difference.
func checkColumns(t *testing.T, cp CollectionPair, label string, ops []Operator, oracles []oracleExtractor) {
	t.Helper()
	inputs := []any{cp}
	var want []oracleColumn
	for i, op := range ops {
		got, err := op.Apply([]any{cp})
		if err != nil {
			t.Fatalf("%s: %v", op.Type(), err)
		}
		oc, err := oracleExtract(cp, oracles[i])
		if err != nil {
			t.Fatalf("oracle %s: %v", op.Type(), err)
		}
		if !bytes.Equal(mustEncode(t, got), mustEncode(t, columnFromMaps(oc.Train, oc.Test))) {
			t.Fatalf("extractor %d (%s %v): column differs from the oracle's\ngot  %+v\nwant %v / %v",
				i, op.Type(), op.Params(), got, oc.Train, oc.Test)
		}
		inputs = append(inputs, got)
		want = append(want, oc)
	}
	got, err := NewFeaturize(label, "yes").Apply(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracleFeaturize(cp, label, "yes", want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, got), mustEncode(t, ref)) {
		t.Fatalf("featurize differs from the oracle\ngot  %+v\nwant %+v", got, ref)
	}
}

// TestColumnarOperatorsMatchOracle runs scan, clean, every extractor and
// featurize over seeded random collections, next to the map-per-row
// oracle, and requires equal rows and byte-identical encoded columns and
// vectorized datasets.
func TestColumnarOperatorsMatchOracle(t *testing.T) {
	schema := data.MustSchema(oracleColumns...)
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trainText, testText := oracleCSV(rng, 1+rng.Intn(60), false), oracleCSV(rng, rng.Intn(30), true)
		out, err := NewCSVScanner(oracleColumns...).Apply([]any{TextPair{Train: trainText, Test: testText}})
		if err != nil {
			t.Fatalf("seed %d: scan: %v", seed, err)
		}
		scanned := out.(CollectionPair)
		wantTrain, err := oracleScanCSV(trainText, schema)
		if err != nil {
			t.Fatal(err)
		}
		wantTest, err := oracleScanCSV(testText, schema)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rowsOf(scanned.Train), rowsOf(wantTrain)) || !reflect.DeepEqual(rowsOf(scanned.Test), rowsOf(wantTest)) {
			t.Fatalf("seed %d: scanned rows differ from the oracle's", seed)
		}

		out, err = NewClean().Apply([]any{scanned})
		if err != nil {
			t.Fatal(err)
		}
		cleaned := out.(CollectionPair)
		ref := oracleClean(scanned)
		if !reflect.DeepEqual(rowsOf(cleaned.Train), rowsOf(ref.Train)) || !reflect.DeepEqual(rowsOf(cleaned.Test), rowsOf(ref.Test)) {
			t.Fatalf("seed %d: cleaned rows differ from the oracle's\ngot  %q\nwant %q", seed, rowsOf(cleaned.Test), rowsOf(ref.Test))
		}

		ops := []Operator{Field("num"), Field("cat"), Bucket("age", 1+rng.Intn(12)), Cross("cat", "k"), Field("k"), Field("k=v")}
		oracles := []oracleExtractor{oracleField("num"), oracleField("cat"), oracleBucket("age", 0), oracleCross("cat", "k"), oracleField("k"), oracleField("k=v")}
		oracles[2] = oracleBucket("age", mustAtoi(t, ops[2].Params()["bins"]))
		for _, cp := range []CollectionPair{scanned, cleaned} {
			checkColumns(t, cp, "label", ops, oracles)
			// The reversed order flips which column's value wins for the
			// shared name "k=v".
			rev := []Operator{ops[5], ops[4], ops[1]}
			checkColumns(t, cp, "label", rev, []oracleExtractor{oracles[5], oracles[4], oracles[1]})
		}
	}
}

// TestFieldOneHotKeepsRawCell: a cell that ScanCSV did not trim (built
// through Append) parses after trimming but keeps its raw spelling in a
// one-hot name, exactly like the oracle; Clean repairs such cells exactly
// like the oracle too.
func TestFieldOneHotKeepsRawCell(t *testing.T) {
	var train, test [][]string
	for i, v := range append(append([]string{}, oraclePadded...), " 42 ", "\t-1", " nan", " inflow ", " yes", "Sales ", "x  ") {
		row := []string{v, []string{"yes", "no"}[i%2]}
		train = append(train, row)
		test = append(test, row)
	}
	cp := smallPair(t, train, test, "cat", "label")
	checkColumns(t, cp, "label", []Operator{Field("cat")}, []oracleExtractor{oracleField("cat")})
	out, err := NewClean().Apply([]any{cp})
	if err != nil {
		t.Fatal(err)
	}
	cleaned, ref := out.(CollectionPair), oracleClean(cp)
	if !reflect.DeepEqual(rowsOf(cleaned.Train), rowsOf(ref.Train)) || !reflect.DeepEqual(rowsOf(cleaned.Test), rowsOf(ref.Test)) {
		t.Fatalf("cleaned rows differ from the oracle's\ngot  %q\nwant %q", rowsOf(cleaned.Train), rowsOf(ref.Train))
	}
}

// TestFeaturizeMultiFeatureRowsMatchOracle feeds featurize columns whose
// rows carry several features, names shared between columns, and names
// that appear only in the test half.
func TestFeaturizeMultiFeatureRowsMatchOracle(t *testing.T) {
	names := []string{"a", "b", "c=x", "c=y", "shared", "z"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nTrain, nTest := rng.Intn(25), rng.Intn(15)
		var trainRows, testRows [][]string
		for i := 0; i < nTrain; i++ {
			trainRows = append(trainRows, []string{[]string{"yes", "no"}[rng.Intn(2)]})
		}
		for i := 0; i < nTest; i++ {
			testRows = append(testRows, []string{[]string{"yes", "no"}[rng.Intn(2)]})
		}
		cp := smallPair(t, trainRows, testRows, "label")
		gen := func(n int, vocab []string) []data.FeatureMap {
			out := make([]data.FeatureMap, n)
			for i := range out {
				out[i] = make(data.FeatureMap)
				for k := rng.Intn(5); k > 0; k-- {
					out[i][vocab[rng.Intn(len(vocab))]] = float64(rng.Intn(200)-100) / 8
				}
			}
			return out
		}
		inputs := []any{cp}
		var cols []oracleColumn
		for c := 1 + rng.Intn(4); c > 0; c-- {
			oc := oracleColumn{Train: gen(nTrain, names), Test: gen(nTest, append(names, "test-only", "also-new"))}
			inputs = append(inputs, columnFromMaps(oc.Train, oc.Test))
			cols = append(cols, oc)
		}
		got, err := NewFeaturize("label", "yes").Apply(inputs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleFeaturize(cp, "label", "yes", cols)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustEncode(t, got), mustEncode(t, want)) {
			t.Fatalf("seed %d: featurize differs from the oracle\ngot  %+v\nwant %+v", seed, got, want)
		}
		// Every half's rows are capped windows of one slab.
		for _, set := range [][]data.Labeled{got.(VecPair).Train, got.(VecPair).Test} {
			checkSlab(t, set)
		}
	}
}

// checkSlab asserts each half's rows are capped, consecutive windows of one
// slab: appending to a row cannot write into the next one.
func checkSlab(t *testing.T, set []data.Labeled) {
	t.Helper()
	var next uintptr
	for i, ex := range set {
		if cap(ex.X.Indices) != len(ex.X.Indices) || cap(ex.X.Values) != len(ex.X.Values) {
			t.Fatalf("row %d is not capped: len %d cap %d", i, len(ex.X.Indices), cap(ex.X.Indices))
		}
		if len(ex.X.Indices) == 0 {
			continue
		}
		first := uintptr(unsafe.Pointer(unsafe.SliceData(ex.X.Indices)))
		if next != 0 && first != next {
			t.Fatalf("row %d does not follow the previous row in the slab", i)
		}
		next = first + uintptr(len(ex.X.Indices))*unsafe.Sizeof(0)
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscan(s, &n); err != nil {
		t.Fatal(err)
	}
	return n
}

// normalizeField is strings.Fields/Join on every input; its fast path only
// skips the copy.
func TestNormalizeFieldMatchesFieldsJoin(t *testing.T) {
	inputs := []string{"", " ", "  ", "a", "a b", "a  b", " a", "a ", "a\tb", "a\u00a0b", "\u0085x", "Café", "x\r", "a b c"}
	alphabet := []string{"a", "Z", " ", "\t", "\n", "\v", "\u00a0", "é", "?"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		for n := rng.Intn(7); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		inputs = append(inputs, b.String())
	}
	for _, s := range inputs {
		if got, want := normalizeField(s), strings.Join(strings.Fields(s), " "); got != want {
			t.Fatalf("normalizeField(%q) = %q, want %q", s, got, want)
		}
	}
}
