package nn

// Full-dimension shape tables of the three ImageNet-winner networks the
// paper characterizes (Section III). These drive every analytical
// experiment; no arithmetic is executed on them.

// AlexNetShape returns the AlexNet geometry of Fig 1 / Krizhevsky et al.
// CONV2/4/5 use two filter groups, which is why Table IV reports their
// per-group result matrices as 128×729 and 128×169.
func AlexNetShape() *NetShape {
	return &NetShape{
		Name:   "AlexNet",
		InputC: 3,
		InputH: 227,
		InputW: 227,
		Layers: []LayerSpec{
			conv("CONV1", 3, 227, 227, 96, 11, 4, 0, 1),
			pool("POOL1", 96, 55, 55, 3, 2),
			conv("CONV2", 96, 27, 27, 256, 5, 1, 2, 2),
			pool("POOL2", 256, 27, 27, 3, 2),
			conv("CONV3", 256, 13, 13, 384, 3, 1, 1, 1),
			conv("CONV4", 384, 13, 13, 384, 3, 1, 1, 2),
			conv("CONV5", 384, 13, 13, 256, 3, 1, 1, 2),
			pool("POOL5", 256, 13, 13, 3, 2),
			fc("FC6", 256*6*6, 4096),
			fc("FC7", 4096, 4096),
			fc("FC8", 4096, 1000),
		},
	}
}

// VGGNetShape returns the VGG-16 geometry (configuration D of Simonyan &
// Zisserman), the paper's "VGGNet".
func VGGNetShape() *NetShape {
	n := &NetShape{
		Name:   "VGGNet",
		InputC: 3,
		InputH: 224,
		InputW: 224,
	}
	type blk struct {
		convs int
		ch    int
	}
	blocks := []blk{{2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512}}
	in, size := 3, 224
	for bi, b := range blocks {
		for ci := 0; ci < b.convs; ci++ {
			name := convName(bi+1, ci+1)
			n.Layers = append(n.Layers, conv(name, in, size, size, b.ch, 3, 1, 1, 1))
			in = b.ch
		}
		n.Layers = append(n.Layers, pool(poolName(bi+1), b.ch, size, size, 2, 2))
		size /= 2
	}
	n.Layers = append(n.Layers,
		fc("FC6", 512*7*7, 4096),
		fc("FC7", 4096, 4096),
		fc("FC8", 4096, 1000),
	)
	return n
}

// inceptionSpec parameterizes one GoogLeNet inception module.
type inceptionSpec struct {
	name                                   string
	size                                   int // spatial extent in and out
	in, n1x1, n3x3red, n3x3, n5x5red, n5x5 int
	poolProj                               int
}

// out returns the module's concatenated output channels.
func (s inceptionSpec) out() int { return s.n1x1 + s.n3x3 + s.n5x5 + s.poolProj }

// googleNetInceptions lists the nine inception modules of GoogLeNet
// (Szegedy et al., Table 1).
func googleNetInceptions() []inceptionSpec {
	return []inceptionSpec{
		{"3a", 28, 192, 64, 96, 128, 16, 32, 32},
		{"3b", 28, 256, 128, 128, 192, 32, 96, 64},
		{"4a", 14, 480, 192, 96, 208, 16, 48, 64},
		{"4b", 14, 512, 160, 112, 224, 24, 64, 64},
		{"4c", 14, 512, 128, 128, 256, 24, 64, 64},
		{"4d", 14, 512, 112, 144, 288, 32, 64, 64},
		{"4e", 14, 528, 256, 160, 320, 32, 128, 128},
		{"5a", 7, 832, 256, 160, 320, 32, 128, 128},
		{"5b", 7, 832, 384, 192, 384, 48, 128, 128},
	}
}

// GoogLeNetShape returns the GoogLeNet (Inception v1) geometry. Each
// inception module contributes six convolutional GEMMs.
func GoogLeNetShape() *NetShape {
	n := &NetShape{
		Name:   "GoogLeNet",
		InputC: 3,
		InputH: 224,
		InputW: 224,
	}
	n.Layers = append(n.Layers,
		conv("CONV1", 3, 224, 224, 64, 7, 2, 3, 1),
		pool("POOL1", 64, 112, 112, 2, 2),
		conv("CONV2a", 64, 56, 56, 64, 1, 1, 0, 1),
		conv("CONV2", 64, 56, 56, 192, 3, 1, 1, 1),
		pool("POOL2", 192, 56, 56, 2, 2),
	)
	for _, m := range googleNetInceptions() {
		s := m.size
		n.Layers = append(n.Layers,
			conv(m.name+"/1x1", m.in, s, s, m.n1x1, 1, 1, 0, 1),
			conv(m.name+"/3x3red", m.in, s, s, m.n3x3red, 1, 1, 0, 1),
			conv(m.name+"/3x3", m.n3x3red, s, s, m.n3x3, 3, 1, 1, 1),
			conv(m.name+"/5x5red", m.in, s, s, m.n5x5red, 1, 1, 0, 1),
			conv(m.name+"/5x5", m.n5x5red, s, s, m.n5x5, 5, 1, 2, 1),
			conv(m.name+"/pool_proj", m.in, s, s, m.poolProj, 1, 1, 0, 1),
		)
		switch m.name {
		case "3b":
			n.Layers = append(n.Layers, pool("POOL3", m.out(), 28, 28, 2, 2))
		case "4e":
			n.Layers = append(n.Layers, pool("POOL4", m.out(), 14, 14, 2, 2))
		}
	}
	n.Layers = append(n.Layers,
		pool("POOL5", 1024, 7, 7, 7, 7), // global average pool (footprint only)
		fc("FC", 1024, 1000),
	)
	return n
}

// AllNetShapes returns the three characterization networks.
func AllNetShapes() []*NetShape {
	return []*NetShape{AlexNetShape(), GoogLeNetShape(), VGGNetShape()}
}

// NetShapeByName builds the named shape table, or returns nil if unknown.
func NetShapeByName(name string) *NetShape {
	switch name {
	case "AlexNet":
		return AlexNetShape()
	case "GoogLeNet":
		return GoogLeNetShape()
	case "VGGNet":
		return VGGNetShape()
	}
	return nil
}

func conv(name string, nc, hi, wi, nf, sf, stride, pad, groups int) LayerSpec {
	return LayerSpec{Kind: ConvLayer, Conv: ConvShape{
		Name: name, Nc: nc, Hi: hi, Wi: wi, Nf: nf, Sf: sf, Stride: stride, Pad: pad, Groups: groups,
	}}
}

func pool(name string, ch, hi, wi, size, stride int) LayerSpec {
	return LayerSpec{Kind: PoolLayer, Pool: PoolShape{
		Name: name, Channels: ch, Hi: hi, Wi: wi, Size: size, Stride: stride,
	}}
}

func fc(name string, in, out int) LayerSpec {
	return LayerSpec{Kind: FCLayer, FC: FCShape{Name: name, In: in, Out: out}}
}

func convName(block, idx int) string {
	return "CONV" + itoa(block) + "_" + itoa(idx)
}

func poolName(block int) string { return "POOL" + itoa(block) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
