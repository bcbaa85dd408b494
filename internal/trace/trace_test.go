package trace

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rng"
)

func sampleTrace() *Trace {
	return &Trace{Times: []float64{0.5, 1.0, 1.0, 2.75, 10}}
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Trace{
		{Times: []float64{1, 0.5}},
		{Times: []float64{-1}},
		{Times: []float64{math.NaN()}},
		{Times: []float64{math.Inf(1)}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
	if err := (&Trace{}).Validate(); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
}

func TestInterarrivals(t *testing.T) {
	tr := &Trace{Times: []float64{2, 3, 7}}
	ia := tr.Interarrivals()
	want := []float64{2, 1, 4}
	for i := range want {
		if ia[i] != want[i] {
			t.Fatalf("interarrivals %v, want %v", ia, want)
		}
	}
}

func TestSummary(t *testing.T) {
	tr := &Trace{Times: []float64{1, 2, 3, 4}}
	st := tr.Summary()
	if st.Count != 4 || st.Duration != 4 {
		t.Fatalf("summary %+v", st)
	}
	if st.MeanInterarrival != 1 {
		t.Errorf("mean interarrival %v, want 1", st.MeanInterarrival)
	}
	if st.CV != 0 {
		t.Errorf("CV %v, want 0 for deterministic gaps", st.CV)
	}
	if st.MaxGap != 1 {
		t.Errorf("max gap %v, want 1", st.MaxGap)
	}
}

func TestSummaryEmpty(t *testing.T) {
	st := (&Trace{}).Summary()
	if st.Count != 0 || st.Duration != 0 || st.CV != 0 {
		t.Errorf("empty summary %+v", st)
	}
}

func TestGenerate(t *testing.T) {
	d, _ := dist.NewExponential(2)
	tr, err := Generate(d, 10000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 10000 {
		t.Fatalf("generated %d", tr.Len())
	}
	st := tr.Summary()
	if math.Abs(st.MeanInterarrival-0.5) > 0.02 {
		t.Errorf("mean interarrival %v, want ~0.5", st.MeanInterarrival)
	}
	// Exponential: CV ~ 1.
	if math.Abs(st.CV-1) > 0.05 {
		t.Errorf("CV %v, want ~1", st.CV)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d, _ := dist.NewExponential(1)
	a, _ := Generate(d, 100, rng.New(7))
	b, _ := Generate(d, 100, rng.New(7))
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatal("Generate not deterministic for equal seeds")
		}
	}
}

func TestGenerateNegativeCount(t *testing.T) {
	d, _ := dist.NewExponential(1)
	if _, err := Generate(d, -1, rng.New(1)); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip count %d != %d", got.Len(), tr.Len())
	}
	for i := range tr.Times {
		if math.Abs(got.Times[i]-tr.Times[i]) > 1e-9 {
			t.Fatalf("timestamp %d: %v != %v", i, got.Times[i], tr.Times[i])
		}
	}
}

func TestTextCommentsAndBlanks(t *testing.T) {
	in := "#qdpm-trace v1\n# a comment\n\n1.5\n# another\n2.5\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.Times[0] != 1.5 || tr.Times[1] != 2.5 {
		t.Fatalf("parsed %v", tr.Times)
	}
}

func TestTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "#other\n1\n",
		"garbage value": "#qdpm-trace v1\nabc\n",
		"unsorted":      "#qdpm-trace v1\n2\n1\n",
		"negative":      "#qdpm-trace v1\n-5\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	d, _ := dist.NewExponential(1)
	tr, _ := Generate(d, 5000, rng.New(3))
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("count %d != %d", got.Len(), tr.Len())
	}
	for i := range tr.Times {
		if got.Times[i] != tr.Times[i] { // binary must be bit-exact
			t.Fatalf("timestamp %d not bit-exact", i)
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{}).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty round trip gave %d records", got.Len())
	}
}

func TestBinaryErrors(t *testing.T) {
	// Bad magic.
	if _, err := ReadBinary(bytes.NewReader([]byte("NOTMAGIC\x00\x00\x00\x00\x00\x00\x00\x00"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated count.
	if _, err := ReadBinary(bytes.NewReader([]byte("QDPMTRC1\x01"))); err == nil {
		t.Error("truncated count accepted")
	}
	// Count exceeds available records.
	var buf bytes.Buffer
	tr := sampleTrace()
	tr.WriteBinary(&buf)
	raw := buf.Bytes()
	truncated := raw[:len(raw)-4]
	if _, err := ReadBinary(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated records accepted")
	}
	// Absurd count rejected before allocation.
	huge := append([]byte("QDPMTRC1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := ReadBinary(bytes.NewReader(huge)); err == nil {
		t.Error("absurd count accepted")
	}
}

// A header may declare up to maxBinaryCount records. Reading one that
// declares 2^30 records and holds none must fail on the first missing
// record without first allocating for all 2^30 (8 GiB).
func TestBinaryDeclaredCountBeyondInput(t *testing.T) {
	in := append([]byte("QDPMTRC1"), 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header declaring 2^30 records with none present accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting the header allocated %d bytes", got)
	}
}

// Property: text and binary codecs round-trip any generated trace.
func TestCodecRoundTripProperty(t *testing.T) {
	d, _ := dist.NewExponential(1)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 50)
		tr, err := Generate(d, n, rng.New(seed))
		if err != nil {
			return false
		}
		var tb, bb bytes.Buffer
		if tr.WriteText(&tb) != nil || tr.WriteBinary(&bb) != nil {
			return false
		}
		fromText, err1 := ReadText(&tb)
		fromBin, err2 := ReadBinary(&bb)
		if err1 != nil || err2 != nil {
			return false
		}
		if fromText.Len() != n || fromBin.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if fromBin.Times[i] != tr.Times[i] {
				return false
			}
			if math.Abs(fromText.Times[i]-tr.Times[i]) > 1e-6*(1+tr.Times[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// An empty trace must round-trip through the text codec (header only).
func TestTextEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty text round trip gave %d records", got.Len())
	}
}

// The binary reader must reject payloads that decode to invalid traces:
// NaN, negative, and unsorted timestamps. WriteBinary does not validate,
// so a corrupted or hand-built file exercises the read-side guard.
func TestBinaryRejectsInvalidPayload(t *testing.T) {
	bad := map[string]*Trace{
		"nan":      {Times: []float64{1, math.NaN()}},
		"negative": {Times: []float64{-1}},
		"unsorted": {Times: []float64{2, 1}},
		"inf":      {Times: []float64{math.Inf(1)}},
	}
	for name, tr := range bad {
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if _, err := ReadBinary(&buf); err == nil {
			t.Errorf("%s payload accepted by ReadBinary", name)
		}
	}
}

// Property: converting text→binary→text preserves the parsed timestamps
// exactly (the binary leg is bit-exact; only the initial text rendering
// rounds).
func TestConvertCycleProperty(t *testing.T) {
	d, _ := dist.NewExponential(2)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 40)
		tr, err := Generate(d, n, rng.New(seed))
		if err != nil {
			return false
		}
		var tb bytes.Buffer
		if tr.WriteText(&tb) != nil {
			return false
		}
		parsed, err := ReadText(&tb)
		if err != nil {
			return false
		}
		var bb bytes.Buffer
		if parsed.WriteBinary(&bb) != nil {
			return false
		}
		back, err := ReadBinary(&bb)
		if err != nil {
			return false
		}
		if back.Len() != parsed.Len() {
			return false
		}
		for i := range parsed.Times {
			if back.Times[i] != parsed.Times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
