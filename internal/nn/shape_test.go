package nn

import (
	"math"
	"reflect"
	"testing"
)

func TestAlexNetConvGeometry(t *testing.T) {
	a := AlexNetShape()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	convs := a.ConvLayers()
	if len(convs) != 5 {
		t.Fatalf("AlexNet has %d conv layers, want 5", len(convs))
	}
	// Output extents: 55, 27, 13, 13, 13.
	wantOut := []int{55, 27, 13, 13, 13}
	for i, c := range convs {
		ho, wo := c.OutDims()
		if ho != wantOut[i] || wo != wantOut[i] {
			t.Errorf("%s: out %dx%d, want %dx%d", c.Name, ho, wo, wantOut[i], wantOut[i])
		}
	}
}

// Table IV reports AlexNet CONV2's per-group result matrix as 128×729 and
// CONV5's as 128×169 at batch size 1.
func TestAlexNetTableIVResultMatrices(t *testing.T) {
	a := AlexNetShape()
	convs := a.ConvLayers()
	m2, n2, k2 := convs[1].GEMMDims(1)
	if m2 != 128 || n2 != 729 {
		t.Errorf("CONV2 result matrix %dx%d, want 128x729", m2, n2)
	}
	if k2 != 5*5*48 {
		t.Errorf("CONV2 K = %d, want %d", k2, 5*5*48)
	}
	m5, n5, _ := convs[4].GEMMDims(1)
	if m5 != 128 || n5 != 169 {
		t.Errorf("CONV5 result matrix %dx%d, want 128x169", m5, n5)
	}
	if convs[1].GEMMCount() != 2 || convs[4].GEMMCount() != 2 {
		t.Errorf("CONV2/CONV5 group counts = %d/%d, want 2/2", convs[1].GEMMCount(), convs[4].GEMMCount())
	}
}

func TestGEMMDimsScaleWithBatch(t *testing.T) {
	c := AlexNetShape().ConvLayers()[1]
	_, n1, _ := c.GEMMDims(1)
	_, n128, _ := c.GEMMDims(128)
	if n128 != 128*n1 {
		t.Fatalf("N at batch 128 = %d, want %d", n128, 128*n1)
	}
}

// The paper states VGGNet needs 1.5×10^10 floating point multiplications
// per image, i.e. ~3×10^10 FLOPs counting multiply and accumulate.
func TestVGGNetFLOPs(t *testing.T) {
	v := VGGNetShape()
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	flops := v.TotalFLOPsPerImage()
	if flops < 2.8e10 || flops > 3.4e10 {
		t.Fatalf("VGG FLOPs/image = %.3g, want ≈3.1e10", flops)
	}
}

func TestAlexNetFLOPs(t *testing.T) {
	// AlexNet is ≈1.45 GMAC/image → ≈2.9e9 FLOPs with grouped convs.
	flops := AlexNetShape().TotalFLOPsPerImage()
	if flops < 1.2e9 || flops > 2.5e9 {
		t.Fatalf("AlexNet FLOPs/image = %.3g, want ≈1.4e9 (grouped)", flops)
	}
}

func TestGoogLeNetShape(t *testing.T) {
	g := GoogLeNetShape()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 stem convs + 9 modules × 6 convs = 57 conv GEMM layers.
	if got := len(g.ConvLayers()); got != 57 {
		t.Fatalf("GoogLeNet conv layers = %d, want 57", got)
	}
	// GoogLeNet is ≈1.5 GMAC/image → ≈3e9 FLOPs.
	flops := g.TotalFLOPsPerImage()
	if flops < 2e9 || flops > 4.5e9 {
		t.Fatalf("GoogLeNet FLOPs/image = %.3g, want ≈3e9", flops)
	}
}

func TestInceptionOutputChannels(t *testing.T) {
	for _, m := range googleNetInceptions() {
		want := map[string]int{
			"3a": 256, "3b": 480, "4a": 512, "4b": 512, "4c": 512,
			"4d": 528, "4e": 832, "5a": 832, "5b": 1024,
		}[m.name]
		if got := m.out(); got != want {
			t.Errorf("inception %s out channels = %d, want %d", m.name, got, want)
		}
	}
}

func TestWeightBytes(t *testing.T) {
	// AlexNet ≈ 61M params (grouped convs: 2.3M conv + 58.6M FC) → ~244MB.
	wb := AlexNetShape().WeightBytes()
	if wb < 230e6 || wb > 260e6 {
		t.Fatalf("AlexNet weight bytes = %d, want ≈244MB", wb)
	}
	// VGG-16 ≈ 138M params → ~552MB.
	wb = VGGNetShape().WeightBytes()
	if wb < 520e6 || wb > 580e6 {
		t.Fatalf("VGG weight bytes = %d, want ≈552MB", wb)
	}
}

func TestMemoryFootprintMonotoneInBatch(t *testing.T) {
	for _, net := range AllNetShapes() {
		prev := int64(0)
		for _, b := range []int{1, 8, 32, 128} {
			f := net.MemoryFootprintBytes(b)
			if f <= prev {
				t.Fatalf("%s: footprint not increasing at batch %d", net.Name, b)
			}
			prev = f
		}
	}
}

func TestConvShapeValidateRejectsBadGeometry(t *testing.T) {
	bad := []ConvShape{
		{Name: "neg", Nc: -1, Hi: 8, Wi: 8, Nf: 4, Sf: 3, Stride: 1},
		{Name: "empty", Nc: 3, Hi: 2, Wi: 2, Nf: 4, Sf: 5, Stride: 1},
		{Name: "groups", Nc: 3, Hi: 8, Wi: 8, Nf: 4, Sf: 3, Stride: 1, Pad: 1, Groups: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid shape accepted", c.Name)
		}
	}
}

// TestNetShapeByName: every name in AllNetShapes resolves to a table equal
// to that entry, and an unknown name (or a wrong case) to nil.
func TestNetShapeByName(t *testing.T) {
	for _, want := range AllNetShapes() {
		if got := NetShapeByName(want.Name); !reflect.DeepEqual(got, want) {
			t.Errorf("NetShapeByName(%q) differs from its AllNetShapes entry", want.Name)
		}
	}
	for _, name := range []string{"LeNet", "alexnet", ""} {
		if NetShapeByName(name) != nil {
			t.Errorf("unknown network %q resolved", name)
		}
	}
}

func TestEq1MatchesManualCount(t *testing.T) {
	// CONV3 of AlexNet: 384 filters, 3×3×256 each, 13×13 output.
	c := AlexNetShape().ConvLayers()[2]
	want := 2.0 * 384 * 3 * 3 * 256 * 13 * 13
	if got := c.FLOPsPerImage(); math.Abs(got-want) > 1 {
		t.Fatalf("CONV3 FLOPs = %v, want %v", got, want)
	}
}
