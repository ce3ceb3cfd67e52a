package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
	"pcnn/internal/tensor"
)

// sameResult compares two results bit for bit: floats by their bits (so
// −0 differs from 0), Probs by nil-ness, length and element bits.
func sameResult(a, b serve.Result) bool {
	fa := []float64{a.QueueMS, a.ExecMS, a.ResponseMS, a.EnergyPerImageJ, a.Entropy, a.SoC}
	fb := []float64{b.QueueMS, b.ExecMS, b.ResponseMS, b.EnergyPerImageJ, b.Entropy, b.SoC}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	if a.ID != b.ID || a.Batch != b.Batch || a.Level != b.Level || a.Quantized != b.Quantized ||
		a.DeadlineMet != b.DeadlineMet || (a.Probs == nil) != (b.Probs == nil) || len(a.Probs) != len(b.Probs) {
		return false
	}
	for i := range a.Probs {
		if math.Float32bits(a.Probs[i]) != math.Float32bits(b.Probs[i]) {
			return false
		}
	}
	return true
}

// float32Bytes packs probabilities the way FuzzResultWire unpacks them.
func float32Bytes(ps ...float32) []byte {
	b := make([]byte, 0, 4*len(ps))
	for _, p := range ps {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(p))
	}
	return b
}

// FuzzResultWire proves the /infer codec equal to encoding/json: for any
// Result, appendResult writes json.Marshal's bytes (and refuses what it
// refuses), and parseResult inverts appendResult, json.Marshal and
// json.MarshalIndent bit for bit; for any bytes — alone, and spliced
// into appendResult's output, where a near-miss of the plain shape is
// likeliest — parseResult succeeds exactly when json.Unmarshal does, with
// the same Result.
func FuzzResultWire(f *testing.F) {
	negZero := math.Copysign(0, -1)
	long := make([]float32, 1000)
	for i := range long {
		long[i] = float32(i) / 999
	}
	f.Add(uint64(0), 0, 0, false, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, false, true, []byte(nil), []byte(`null`))
	f.Add(uint64(3), 1, 9, false, 0.01, 2.5, 2.51, 0.07, 0.3, 17.2, true, true, []byte(nil),
		[]byte(`{"ID":3,"Batch":1,"Level":9,"Quantized":false,"QueueMS":0.01,"ExecMS":2.5,"ResponseMS":2.51,`+
			`"EnergyPerImageJ":0.07,"Entropy":0.3,"SoC":17.2,"DeadlineMet":true,"Probs":[0.25,1e-7]}`))
	f.Add(uint64(math.MaxUint64), 32, 12, true, negZero, 5e-324, math.MaxFloat64, 1e-7, 1e21, 2.225073858507201e-308,
		true, false, []byte{}, []byte(` {"id":1,"PROBS":[],"extra":{"a":[1,{"b":null}]}} `))
	f.Add(uint64(42), -1, math.MinInt64, false, 0.1, 1.0/3, 12.5, 9.999e20, 1e-6, -3.5, true, false,
		float32Bytes(float32(negZero), math.SmallestNonzeroFloat32, math.MaxFloat32, 1e-7, 0.5, 1e21),
		[]byte(`{"Probs":[1,null,2.5e-3],"Probs":[null],"Probſ":[4],"ID":7}`))
	f.Add(uint64(7), 1, 0, false, math.NaN(), 0.0, 0.0, 0.0, 0.0, 0.0, false, false, float32Bytes(long...),
		[]byte(`{"ID":-1}`))
	f.Add(uint64(8), 2, 1, false, 1.5, 2.5, 4.0, 0.01, 0.2, 0.7, true, false, float32Bytes(float32(math.Inf(1))),
		[]byte(`{"Batch":1.0,"Level":01}`))
	f.Add(uint64(9), 3, 2, true, 1e-300, 0.5, 1e300, 0.0, 0.0, 0.0, false, false, []byte{1, 2},
		[]byte("{\n  \"I\\u0044\": 5,\n  \"Probs\": [1e-45, -0, 3.5e38]\n}\n"))
	f.Fuzz(func(t *testing.T, id uint64, batch, level int, quant bool, queue, exec, resp, energy, ent, soc float64,
		met, nilProbs bool, probs, raw []byte) {
		r := serve.Result{ID: id, Batch: batch, Level: level, Quantized: quant, QueueMS: queue, ExecMS: exec,
			ResponseMS: resp, EnergyPerImageJ: energy, Entropy: ent, SoC: soc, DeadlineMet: met}
		if !nilProbs {
			r.Probs = []float32{}
			for i := 0; i+4 <= len(probs); i += 4 {
				r.Probs = append(r.Probs, math.Float32frombits(binary.LittleEndian.Uint32(probs[i:])))
			}
		}
		want, jerr := json.Marshal(r)
		got, err := appendResult(nil, r)
		inputs := [][]byte{raw}
		if (err != nil) != (jerr != nil) {
			t.Fatalf("appendResult error %v, json.Marshal error %v", err, jerr)
		}
		if err == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("appendResult wrote\n%s\njson.Marshal writes\n%s", got, want)
			}
			indented, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			for _, enc := range [][]byte{got, indented} {
				if back, err := parseResult(enc); err != nil || !sameResult(back, r) {
					t.Fatalf("parseResult(%s) = %+v, %v; want %+v", enc, back, err, r)
				}
			}
			k := int(id % uint64(len(got)+1))
			inputs = append(inputs, append(append(got[:k:k], raw...), got[k:]...))
		}

		for _, in := range inputs {
			var ref serve.Result
			jerr := json.Unmarshal(in, &ref)
			back, err := parseResult(in)
			if (err != nil) != (jerr != nil) {
				t.Fatalf("parseResult(%q) error %v, json.Unmarshal error %v", in, err, jerr)
			}
			if jerr == nil && !sameResult(back, ref) {
				t.Fatalf("parseResult(%q) = %+v, json.Unmarshal = %+v", in, back, ref)
			}
		}
	})
}

// TestResultCodecZeroAlloc: a reply without Probs is encoded into a
// buffer with room and decoded without allocating.
func TestResultCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	r := serve.Result{ID: 1 << 40, Batch: 1, QueueMS: 0.012, ExecMS: 1.0 / 3, ResponseMS: 0.345,
		EnergyPerImageJ: 2.5e-7, Entropy: 0.7, SoC: 12.5, DeadlineMet: true}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		b, err := appendResult(buf[:0], r)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := parseResult(b); err != nil || !sameResult(back, r) {
			t.Fatalf("round trip = %+v, %v", back, err)
		}
	})
	if allocs != 0 {
		t.Errorf("encode + decode allocates %.1f objects, want 0", allocs)
	}
}

// handlerTransport is an http.RoundTripper that serves each request by
// calling a handler in process: the /infer hop without sockets, so that
// profiles and allocation counts show this package's code.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// inMemoryRoute builds the path of one routed request: an outer hedging
// least-slack fleet → HTTPReplica → handlerTransport → Handler → the
// inner fleet's one Node, serving one request per batch.
func inMemoryRoute(tb testing.TB) *Fleet {
	reg := NewRegistry()
	d, err := NewDeployment("m", satisfaction.ImageTagging(), map[string]serve.Executor{"pf0": &stormExec{predMS: 1}})
	if err != nil {
		tb.Fatal(err)
	}
	if err := reg.Register(d); err != nil {
		tb.Fatal(err)
	}
	inner := New(reg, Config{})
	if err := inner.AddReplica(NewNode("n0", "pf0", reg, NodeConfig{Serve: serve.Config{Workers: 1, MaxBatch: 1}})); err != nil {
		tb.Fatal(err)
	}
	outer := New(reg, Config{Policy: PolicyLeastSlack, Hedge: true})
	client := &http.Client{Transport: handlerTransport{Handler(inner)}}
	if err := outer.AddReplica(NewHTTPReplicaConfig("d0", "pf0", "http://d0",
		HTTPReplicaConfig{FreshnessMS: 1e9, Client: client})); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = outer.Close(context.Background())
		_ = inner.Close(context.Background())
	})
	routeOne(tb, outer) // build the server and fetch the one prediction
	return outer
}

func routeOne(tb testing.TB, fl *Fleet) {
	ff, err := fl.Submit("m", "client-1")
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := ff.Wait(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

// TestRoutedRequestAllocs is the allocation ceiling of one routed request
// over the in-memory transport, daemon side and ResponseRecorder
// included: 37 measured, ceiling 10 % above.
func TestRoutedRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	fl := inMemoryRoute(t)
	const ceiling = 40
	if allocs := testing.AllocsPerRun(200, func() { routeOne(t, fl) }); allocs > ceiling {
		t.Fatalf("one routed request allocates %.1f objects, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkWireRoundTrip times one routed request over the in-memory
// transport; `make profile-wire` profiles it.
func BenchmarkWireRoundTrip(b *testing.B) {
	fl := inMemoryRoute(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeOne(b, fl)
	}
}

// probsExec stands in for an executor with an executable network: every
// batch returns one softmax row per request, with values that take each
// branch of the float encoding.
type probsExec struct{ stormExec }

func (e *probsExec) Execute(l, n int, x *tensor.Tensor) (serve.BatchResult, error) {
	res, err := e.stormExec.Execute(l, n, x)
	for i := 0; i < n; i++ {
		res.Probs = append(res.Probs, []float32{float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 1e-7, 1.0 / 3, 0.25})
	}
	return res, err
}

// recordingNode keeps the tickets its Node hands out, so a test can read
// the Result the daemon encoded: the ticket memoizes it.
type recordingNode struct {
	*Node
	legs chan *Ticket
}

func (r *recordingNode) Submit(model string) (*Ticket, error) {
	t, err := r.Node.Submit(model)
	if err == nil {
		r.legs <- t
	}
	return t, err
}

// TestInferResultCrossesWire: the Result an HTTPReplica decodes from
// /infer is, field for field and bit for bit, the one the daemon's Node
// produced — for a simulation-only executor (Probs nil) and one that
// returns softmax rows.
func TestInferResultCrossesWire(t *testing.T) {
	for _, tc := range []struct {
		name  string
		exec  serve.Executor
		probs bool
	}{
		{"sim-only", &stormExec{predMS: 1.0 / 3}, false},
		{"with probs", &probsExec{stormExec{predMS: 1e-7}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			d, err := NewDeployment("m", satisfaction.AgeDetection(), map[string]serve.Executor{"pf0": tc.exec})
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Register(d); err != nil {
				t.Fatal(err)
			}
			inner := New(reg, Config{})
			defer inner.Close(context.Background())
			node := &recordingNode{NewNode("n0", "pf0", reg, NodeConfig{Serve: serve.Config{Workers: 1, MaxBatch: 1}}), make(chan *Ticket, 1)}
			if err := inner.AddReplica(node); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(Handler(inner))
			defer ts.Close()
			h := NewHTTPReplicaConfig("d0", "pf0", ts.URL, HTTPReplicaConfig{})
			defer h.Close(context.Background())

			tk, err := h.Submit("m")
			if err != nil {
				t.Fatal(err)
			}
			got, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := (<-node.legs).Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Errorf("HTTPReplica decoded\n%+v\nthe Node produced\n%+v", got, want)
			}
			if (got.Probs != nil) != tc.probs || got.ExecMS <= 0 {
				t.Errorf("decoded %+v; want Probs set: %v and a positive ExecMS", got, tc.probs)
			}
		})
	}
}
