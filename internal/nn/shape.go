// Package nn is the CNN substrate of the reproduction. It serves two
// roles, mirroring how the paper uses CNNs:
//
//   - Shape tables (ConvShape, LayerSpec, NetShape) describe the full-size
//     ImageNet networks — AlexNet, VGG-16, GoogLeNet — as the paper's
//     analytical models and GPU simulator consume them: GEMM dimensions,
//     FLOP counts (Eq 1), weight/activation footprints. No arithmetic is
//     performed on these.
//
//   - A real execution engine (Layer, Sequential, SGD) runs scaled-down
//     trainable variants of the same architectures with actual float32
//     math, so accuracy, entropy and perforation effects are measured, not
//     assumed.
package nn

import "fmt"

// ConvShape describes one convolutional layer's geometry.
type ConvShape struct {
	Name   string
	Nc     int // input channels
	Hi, Wi int // input spatial extent
	Nf     int // number of filters
	Sf     int // square filter size
	Stride int
	Pad    int
	Groups int // filter groups (AlexNet CONV2/4/5 use 2); 0 means 1
}

// groups returns the effective group count.
func (c ConvShape) groups() int {
	if c.Groups <= 1 {
		return 1
	}
	return c.Groups
}

// OutDims returns the output spatial extent (Ho, Wo).
func (c ConvShape) OutDims() (ho, wo int) {
	ho = (c.Hi+2*c.Pad-c.Sf)/c.Stride + 1
	wo = (c.Wi+2*c.Pad-c.Sf)/c.Stride + 1
	return ho, wo
}

// FLOPsPerImage returns Eq 1 of the paper: 2·Nf·Sf²·Nc·Wo·Ho floating
// point operations per image (group-aware: each filter only sees Nc/G
// input channels).
func (c ConvShape) FLOPsPerImage() float64 {
	ho, wo := c.OutDims()
	g := c.groups()
	return 2 * float64(c.Nf) * float64(c.Sf*c.Sf) * float64(c.Nc/g) * float64(wo*ho)
}

// GEMMDims returns the SGEMM dimensions of this layer at the given batch
// size, per group: the filter matrix is M×K, the data matrix K×N (Fig 2).
// M = Nf/G, K = Sf²·Nc/G, N = Wo·Ho·batch.
func (c ConvShape) GEMMDims(batch int) (m, n, k int) {
	ho, wo := c.OutDims()
	g := c.groups()
	return c.Nf / g, wo * ho * batch, c.Sf * c.Sf * c.Nc / g
}

// GEMMCount returns how many independent GEMMs the layer launches per
// batch (one per filter group).
func (c ConvShape) GEMMCount() int { return c.groups() }

// WeightCount returns the number of weight parameters (excluding biases).
func (c ConvShape) WeightCount() int64 {
	g := c.groups()
	return int64(c.Nf) * int64(c.Sf*c.Sf) * int64(c.Nc/g)
}

// OutputCount returns output activations per image.
func (c ConvShape) OutputCount() int64 {
	ho, wo := c.OutDims()
	return int64(c.Nf) * int64(ho*wo)
}

// Im2ColCount returns the number of elements in the layer's im2col buffer
// per image: Sf²·Nc × Wo·Ho (the Dm matrix of Fig 2).
func (c ConvShape) Im2ColCount() int64 {
	ho, wo := c.OutDims()
	return int64(c.Sf*c.Sf*c.Nc) * int64(ho*wo)
}

// GroupIm2ColCount returns the per-group im2col buffer size,
// (Sf²·Nc/G) × Wo·Ho — grouped convolutions process one group at a time
// through a smaller buffer.
func (c ConvShape) GroupIm2ColCount() int64 {
	return c.Im2ColCount() / int64(c.groups())
}

// Validate reports an error for incoherent geometry.
func (c ConvShape) Validate() error {
	ho, wo := c.OutDims()
	switch {
	case c.Nc <= 0 || c.Nf <= 0 || c.Sf <= 0 || c.Stride <= 0:
		return fmt.Errorf("nn: conv %s: non-positive dimension", c.Name)
	case c.Pad < 0:
		return fmt.Errorf("nn: conv %s: negative padding", c.Name)
	case ho <= 0 || wo <= 0:
		return fmt.Errorf("nn: conv %s: empty output %dx%d", c.Name, ho, wo)
	case c.Nc%c.groups() != 0 || c.Nf%c.groups() != 0:
		return fmt.Errorf("nn: conv %s: channels not divisible by groups", c.Name)
	}
	return nil
}

// FCShape describes a fully-connected layer's geometry.
type FCShape struct {
	Name    string
	In, Out int
}

// GEMMDims returns the GEMM dimensions at the given batch size
// (weights Out×In times activations In×batch).
func (f FCShape) GEMMDims(batch int) (m, n, k int) { return f.Out, batch, f.In }

// FLOPsPerImage returns 2·In·Out.
func (f FCShape) FLOPsPerImage() float64 { return 2 * float64(f.In) * float64(f.Out) }

// WeightCount returns In·Out.
func (f FCShape) WeightCount() int64 { return int64(f.In) * int64(f.Out) }

// PoolShape describes a pooling layer (only its data footprint matters to
// the analytical models; pooling time is negligible next to the GEMMs).
type PoolShape struct {
	Name     string
	Channels int
	Hi, Wi   int
	Size     int
	Stride   int
}

// OutDims returns the pooled spatial extent.
func (p PoolShape) OutDims() (ho, wo int) {
	ho = (p.Hi-p.Size)/p.Stride + 1
	wo = (p.Wi-p.Size)/p.Stride + 1
	return ho, wo
}

// OutputCount returns output activations per image.
func (p PoolShape) OutputCount() int64 {
	ho, wo := p.OutDims()
	return int64(p.Channels) * int64(ho*wo)
}

// LayerKind tags a LayerSpec.
type LayerKind int

// Layer kinds appearing in the shape tables.
const (
	ConvLayer LayerKind = iota
	PoolLayer
	FCLayer
)

// String returns the kind name.
func (k LayerKind) String() string {
	switch k {
	case ConvLayer:
		return "conv"
	case PoolLayer:
		return "pool"
	case FCLayer:
		return "fc"
	default:
		return "unknown"
	}
}

// LayerSpec is one entry of a network shape table.
type LayerSpec struct {
	Kind LayerKind
	Conv ConvShape
	FC   FCShape
	Pool PoolShape
}

// Name returns the layer's name regardless of kind.
func (l LayerSpec) Name() string {
	switch l.Kind {
	case ConvLayer:
		return l.Conv.Name
	case PoolLayer:
		return l.Pool.Name
	case FCLayer:
		return l.FC.Name
	default:
		return "?"
	}
}

// NetShape is the full shape table of a network.
type NetShape struct {
	Name   string
	InputC int
	InputH int
	InputW int
	Layers []LayerSpec
}

// ConvLayers returns only the convolutional layer shapes, in order.
func (n *NetShape) ConvLayers() []ConvShape {
	var out []ConvShape
	for _, l := range n.Layers {
		if l.Kind == ConvLayer {
			out = append(out, l.Conv)
		}
	}
	return out
}

// TotalFLOPsPerImage sums Eq 1 over all conv and FC layers.
func (n *NetShape) TotalFLOPsPerImage() float64 {
	var s float64
	for _, l := range n.Layers {
		switch l.Kind {
		case ConvLayer:
			s += l.Conv.FLOPsPerImage()
		case FCLayer:
			s += l.FC.FLOPsPerImage()
		}
	}
	return s
}

// WeightBytes returns the memory footprint of all weights (float32).
func (n *NetShape) WeightBytes() int64 {
	var s int64
	for _, l := range n.Layers {
		switch l.Kind {
		case ConvLayer:
			s += l.Conv.WeightCount()
		case FCLayer:
			s += l.FC.WeightCount()
		}
	}
	return s * 4
}

// Im2ColWorkspaceBytesPerImage returns the largest per-image, per-group
// im2col buffer any conv layer needs (float32). An inference engine that
// reuses one buffer across layers (Caffe/cuBLAS-style) needs exactly this
// much; engines that batch the lowering scale it by the batch size, which
// is what runs mobile GPUs out of memory in Table III.
func (n *NetShape) Im2ColWorkspaceBytesPerImage() int64 {
	var mx int64
	for _, l := range n.Layers {
		if l.Kind != ConvLayer {
			continue
		}
		if v := l.Conv.GroupIm2ColCount(); v > mx {
			mx = v
		}
	}
	return mx * 4
}

// MaxLayerActivationBytesPerImage returns the largest single layer output
// (float32) — inference holds two such buffers (ping-pong), not the whole
// network's activations.
func (n *NetShape) MaxLayerActivationBytesPerImage() int64 {
	mx := int64(n.InputC) * int64(n.InputH) * int64(n.InputW)
	for _, l := range n.Layers {
		var v int64
		switch l.Kind {
		case ConvLayer:
			v = l.Conv.OutputCount()
		case PoolLayer:
			v = l.Pool.OutputCount()
		case FCLayer:
			v = int64(l.FC.Out)
		}
		if v > mx {
			mx = v
		}
	}
	return mx * 4
}

// NumConvLayers returns how many convolutional layers the network has.
func (n *NetShape) NumConvLayers() int { return len(n.ConvLayers()) }

// MemoryFootprintBytes estimates device memory needed to run inference at
// the given batch size with a buffer-reusing engine: weights + two
// batched ping-pong activation buffers + one shared im2col workspace.
// Library-specific overheads live in the analytic package.
func (n *NetShape) MemoryFootprintBytes(batch int) int64 {
	return n.WeightBytes() +
		2*int64(batch)*n.MaxLayerActivationBytesPerImage() +
		n.Im2ColWorkspaceBytesPerImage()
}

// Validate checks every conv layer's geometry.
func (n *NetShape) Validate() error {
	for _, l := range n.Layers {
		if l.Kind == ConvLayer {
			if err := l.Conv.Validate(); err != nil {
				return fmt.Errorf("%s: %w", n.Name, err)
			}
		}
	}
	return nil
}
