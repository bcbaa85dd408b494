package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadText: every input ReadText accepts survives WriteText and a
// second read. WriteText renders nine significant digits, so the first
// trip may round each timestamp by at most that precision; the written
// trace must then read back unchanged. Seeds live in
// testdata/fuzz/FuzzReadText.
func FuzzReadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadText(bytes.NewBufferString(in))
		if err != nil {
			return
		}
		back := textRoundTrip(t, tr)
		for i, v := range tr.Times {
			if math.Abs(back.Times[i]-v) > 1e-8*math.Abs(v) {
				t.Fatalf("timestamp %d: %v wrote back as %v", i, v, back.Times[i])
			}
		}
		again := textRoundTrip(t, back)
		for i, v := range back.Times {
			if again.Times[i] != v {
				t.Fatalf("timestamp %d: written %v read back as %v", i, v, again.Times[i])
			}
		}
	})
}

// textRoundTrip writes tr as text and reads it back, failing t unless the
// same number of timestamps returns.
func textRoundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("rereading a written trace: %v", err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("%d timestamps read back as %d", tr.Len(), back.Len())
	}
	return back
}

// FuzzReadBinary: every input ReadBinary accepts survives WriteBinary and
// a second read bit for bit, and no input crashes the reader — a header
// may declare up to 2^30 records however short the input is. Seeds live
// in testdata/fuzz/FuzzReadBinary.
func FuzzReadBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("rereading a written trace: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("%d timestamps read back as %d", tr.Len(), back.Len())
		}
		for i, v := range tr.Times {
			if math.Float64bits(back.Times[i]) != math.Float64bits(v) {
				t.Fatalf("timestamp %d: %v read back as %v", i, v, back.Times[i])
			}
		}
	})
}
