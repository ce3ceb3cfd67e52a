package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"pcnn/internal/serve"
)

// The /infer reply is a serve.Result as compact JSON with encoding/json's
// keys (the Go field names; Result carries no tags). appendResult writes
// the same bytes json.Marshal would, and parseResult decodes whatever
// json.Unmarshal would decode into a Result, to the same value; for a
// Result without Probs neither allocates.

// wireBufs holds the encode buffers of the /infer handler and the body
// buffers of HTTPReplica's decoder.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// appendResult appends r to b as json.Marshal encodes it. Like
// json.Marshal it refuses NaN and ±Inf, which JSON cannot represent.
func appendResult(b []byte, r serve.Result) ([]byte, error) {
	b = append(b, `{"ID":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, `,"Batch":`...)
	b = strconv.AppendInt(b, int64(r.Batch), 10)
	b = append(b, `,"Level":`...)
	b = strconv.AppendInt(b, int64(r.Level), 10)
	b = append(b, `,"Quantized":`...)
	b = strconv.AppendBool(b, r.Quantized)
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{`,"QueueMS":`, r.QueueMS},
		{`,"ExecMS":`, r.ExecMS},
		{`,"ResponseMS":`, r.ResponseMS},
		{`,"EnergyPerImageJ":`, r.EnergyPerImageJ},
		{`,"Entropy":`, r.Entropy},
		{`,"SoC":`, r.SoC},
	} {
		var ok bool
		if b, ok = appendFloat(append(b, f.key...), f.v, 64); !ok {
			return b, fmt.Errorf("fleet: result %d: %s %v is not JSON", r.ID, strings.Trim(f.key, `,":`), f.v)
		}
	}
	b = append(b, `,"DeadlineMet":`...)
	b = strconv.AppendBool(b, r.DeadlineMet)
	b = append(b, `,"Probs":`...)
	if r.Probs == nil {
		return append(b, `null}`...), nil
	}
	b = append(b, '[')
	for i, p := range r.Probs {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendFloat(b, float64(p), 32); !ok {
			return b, fmt.Errorf("fleet: result %d: probability %v is not JSON", r.ID, p)
		}
	}
	return append(b, "]}"...), nil
}

// appendFloat is encoding/json's float encoding: the shortest decimal that
// round-trips at the given bit size, in exponent form only outside
// [1e-6, 1e21), with a one-digit negative exponent unpadded. It reports
// false for NaN and ±Inf.
func appendFloat(b []byte, f float64, bits int) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// parseResult decodes a JSON Result exactly as json.Unmarshal would. The
// plain shape appendResult and json.MarshalIndent write — known keys
// spelled exactly, no escapes, each value of its field's type, Probs an
// array of numbers or null — is read here without reflection; anything
// else, malformed input included, is handed to json.Unmarshal to decide.
func parseResult(b []byte) (serve.Result, error) {
	var r serve.Result
	if d := (resultDecoder{b: b}); d.result(&r) {
		return r, nil
	}
	var slow serve.Result // apart from r, which would escape with it
	if err := json.Unmarshal(b, &slow); err != nil {
		return serve.Result{}, fmt.Errorf("malformed Result: %w", err)
	}
	return slow, nil
}

// resultDecoder reads the plain shape of a Result; each method reports
// false as soon as the input leaves it.
type resultDecoder struct {
	b []byte
	i int
}

func (d *resultDecoder) result(r *serve.Result) bool {
	if !d.consume('{') {
		return false
	}
	if !d.consume('}') {
		for {
			if !d.field(r) {
				return false
			}
			if d.consume('}') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	d.ws()
	return d.i == len(d.b)
}

// field reads one key and its value into r.
func (d *resultDecoder) field(r *serve.Result) bool {
	key, ok := d.key()
	if !ok || !d.consume(':') {
		return false
	}
	d.ws()
	switch string(key) {
	case "ID":
		r.ID, ok = d.uint()
	case "Batch":
		r.Batch, ok = d.int()
	case "Level":
		r.Level, ok = d.int()
	case "Quantized":
		r.Quantized, ok = d.bool()
	case "QueueMS":
		r.QueueMS, ok = d.float(64)
	case "ExecMS":
		r.ExecMS, ok = d.float(64)
	case "ResponseMS":
		r.ResponseMS, ok = d.float(64)
	case "EnergyPerImageJ":
		r.EnergyPerImageJ, ok = d.float(64)
	case "Entropy":
		r.Entropy, ok = d.float(64)
	case "SoC":
		r.SoC, ok = d.float(64)
	case "DeadlineMet":
		r.DeadlineMet, ok = d.bool()
	case "Probs":
		r.Probs, ok = d.probs()
	default:
		return false
	}
	return ok
}

// probs reads null or an array of numbers.
func (d *resultDecoder) probs() ([]float32, bool) {
	if d.literal("null") {
		return nil, true
	}
	if !d.consume('[') {
		return nil, false
	}
	p := []float32{}
	if d.consume(']') {
		return p, true
	}
	for {
		d.ws()
		f, ok := d.float(32)
		if !ok {
			return nil, false
		}
		p = append(p, float32(f))
		if d.consume(']') {
			return p, true
		}
		if !d.consume(',') {
			return nil, false
		}
	}
}

func (d *resultDecoder) ws() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *resultDecoder) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes s when it comes next.
func (d *resultDecoder) literal(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// key reads a string without escapes or control characters.
func (d *resultDecoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// number reads one number in JSON's grammar and returns its text.
func (d *resultDecoder) number() ([]byte, bool) {
	digits := func() bool {
		start := d.i
		for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
			d.i++
		}
		return d.i > start
	}
	start := d.i
	d.literal("-")
	if !d.literal("0") && !digits() {
		return nil, false
	}
	if d.literal(".") && !digits() {
		return nil, false
	}
	if d.literal("e") || d.literal("E") {
		_ = d.literal("+") || d.literal("-")
		if !digits() {
			return nil, false
		}
	}
	return d.b[start:d.i], true
}

func (d *resultDecoder) uint() (uint64, bool) {
	s, ok := d.number()
	v, err := strconv.ParseUint(string(s), 10, 64)
	return v, ok && err == nil
}

func (d *resultDecoder) int() (int, bool) {
	s, ok := d.number()
	v, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
	return int(v), ok && err == nil
}

func (d *resultDecoder) float(bits int) (float64, bool) {
	s, ok := d.number()
	v, err := strconv.ParseFloat(string(s), bits)
	return v, ok && err == nil
}

func (d *resultDecoder) bool() (bool, bool) {
	if d.literal("true") {
		return true, true
	}
	return false, d.literal("false")
}

// readBody reads r to EOF into b's spare capacity, growing b as needed.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
