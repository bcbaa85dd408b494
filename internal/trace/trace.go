// Package trace defines the on-disk request-trace format used by the
// workload tooling: a monotone sequence of request arrival timestamps in
// seconds, with a text codec for human inspection and a compact binary
// codec for long traces.
//
// The paper drives everything with synthetic input; traces exist so that
// experiments are replayable artifacts (generate once, feed to any policy)
// and so users can substitute measured arrival logs for the synthetic
// processes without touching simulator code.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/rng"
)

// Trace is a sequence of request arrival times in seconds, nondecreasing,
// all finite and >= 0.
type Trace struct {
	// Times holds the arrival timestamps.
	Times []float64
}

// Validate checks the trace invariants.
func (tr *Trace) Validate() error {
	prev := 0.0
	for i, t := range tr.Times {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("trace: timestamp %d is %v", i, t)
		}
		if t < 0 {
			return fmt.Errorf("trace: timestamp %d is negative (%v)", i, t)
		}
		if t < prev {
			return fmt.Errorf("trace: timestamp %d (%v) precedes timestamp %d (%v)", i, t, i-1, prev)
		}
		prev = t
	}
	return nil
}

// Len returns the number of requests.
func (tr *Trace) Len() int { return len(tr.Times) }

// Duration returns the time of the last request (0 for an empty trace).
func (tr *Trace) Duration() float64 {
	if len(tr.Times) == 0 {
		return 0
	}
	return tr.Times[len(tr.Times)-1]
}

// Interarrivals returns the gaps between consecutive requests, with the
// first gap measured from time 0.
func (tr *Trace) Interarrivals() []float64 {
	out := make([]float64, len(tr.Times))
	prev := 0.0
	for i, t := range tr.Times {
		out[i] = t - prev
		prev = t
	}
	return out
}

// Stats summarizes a trace.
type Stats struct {
	Count            int
	Duration         float64
	MeanInterarrival float64
	CV               float64 // coefficient of variation of interarrivals
	MaxGap           float64
}

// Summary computes trace statistics.
func (tr *Trace) Summary() Stats {
	st := Stats{Count: tr.Len(), Duration: tr.Duration()}
	ia := tr.Interarrivals()
	if len(ia) == 0 {
		return st
	}
	sum, sumsq, maxGap := 0.0, 0.0, 0.0
	for _, g := range ia {
		sum += g
		sumsq += g * g
		if g > maxGap {
			maxGap = g
		}
	}
	n := float64(len(ia))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	st.MeanInterarrival = mean
	if mean > 0 {
		st.CV = math.Sqrt(variance) / mean
	}
	st.MaxGap = maxGap
	return st
}

// Generate draws n interarrival gaps from d and returns the resulting
// trace. The stream advances deterministically.
func Generate(d dist.Continuous, n int, s *rng.Stream) (*Trace, error) {
	if n < 0 {
		return nil, fmt.Errorf("trace: negative request count %d", n)
	}
	tr := &Trace{Times: make([]float64, n)}
	t := 0.0
	for i := 0; i < n; i++ {
		t += d.Sample(s)
		tr.Times[i] = t
	}
	return tr, tr.Validate()
}

// ---------------------------------------------------------------------------
// Text codec

// textHeader is the first line of a text-format trace file.
const textHeader = "#qdpm-trace v1"

// WriteText writes the trace in the line-oriented text format: a version
// header, then one timestamp per line. Lines starting with '#' are
// comments.
func (tr *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, textHeader); err != nil {
		return err
	}
	for _, t := range tr.Times {
		if _, err := fmt.Fprintf(bw, "%.9g\n", t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format, validating the header and every
// timestamp.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("trace: empty input, missing header")
	}
	if got := strings.TrimSpace(sc.Text()); got != textHeader {
		return nil, fmt.Errorf("trace: bad header %q, want %q", got, textHeader)
	}
	tr := &Trace{}
	line := 1
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		tr.Times = append(tr.Times, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ReadFile loads a trace from disk in either codec, keyed on the file
// suffix: ".bin" selects the binary format, anything else the text
// format. This is the one place the suffix convention lives; qdpm-trace
// and qdpm-sim both read through it.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return ReadBinary(f)
	}
	return ReadText(f)
}

// ---------------------------------------------------------------------------
// Binary codec

// binaryMagic identifies the binary trace format, version 1.
var binaryMagic = [8]byte{'Q', 'D', 'P', 'M', 'T', 'R', 'C', '1'}

// WriteBinary writes the trace in the binary format: 8-byte magic, uint64
// little-endian count, then count float64 little-endian timestamps.
func (tr *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(tr.Times)))
	if _, err := bw.Write(buf[:]); err != nil {
		return err
	}
	for _, t := range tr.Times {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(t))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxBinaryCount caps the declared record count.
const maxBinaryCount = 1 << 30

// binaryPrealloc caps ReadBinary's first allocation. The slice grows as
// records arrive, so a header that declares more records than the input
// holds costs memory only for the records actually read.
const binaryPrealloc = 1 << 12

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	n := binary.LittleEndian.Uint64(buf[:])
	if n > maxBinaryCount {
		return nil, fmt.Errorf("trace: declared count %d exceeds limit %d", n, maxBinaryCount)
	}
	tr := &Trace{Times: make([]float64, 0, min(n, binaryPrealloc))}
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		tr.Times = append(tr.Times, math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
