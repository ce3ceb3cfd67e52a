package core

import (
	"fmt"
	"math/rand"
	"sync"

	"pcnn/internal/entropy"
	"pcnn/internal/nn"
	"pcnn/internal/workload"
)

// Lab is the accuracy laboratory of the reproduction: the synthetic
// classification task plus the calibrated training recipe that lands the
// three scaled networks in the accuracy band of Table I (AlexNet-S ≈75%,
// VGG-S ≈81%, GoogLeNet-S ≈90% at noise 0.9). Experiments that need a
// *trained* classifier (Table I, Fig 16, a served deployment) start here.
type Lab struct {
	Train *nn.Dataset
	Test  *nn.Dataset

	mu      sync.Mutex
	trained map[string]*nn.Sequential // TrainNet's networks, by name
}

// Training recipe constants (calibrated once; see DESIGN.md).
const (
	labTrainSamples = 512
	labTestSamples  = 256
	labEpochs       = 15
	labBatch        = 32
	labLR           = 0.01
	labMomentum     = 0.9
	labNetSeed      = 7
)

// NewLab generates the synthetic datasets. seed varies the data; the
// default experiments use seed 1.
func NewLab(seed int64) *Lab {
	cfg := workload.DefaultSynth()
	cfg.Seed = seed
	s := workload.NewSynth(cfg)
	train, test := s.TrainTest(labTrainSamples, labTestSamples)
	return &Lab{Train: train, Test: test}
}

// TrainNet trains the named scaled network ("AlexNet", "VGGNet" or
// "GoogLeNet", or their -S forms) with the calibrated recipe and returns
// it ready for tuning. Training is deterministic, so each name is trained
// once per lab and later calls return the same network: it is shared, so
// callers must not train it further or call SetEngine on it (tuning and
// serving only read it, through the options of their calls).
func (l *Lab) TrainNet(name string) (*nn.Sequential, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if net, ok := l.trained[name]; ok {
		return net, nil
	}
	rng := rand.New(rand.NewSource(labNetSeed))
	net := nn.ScaledByName(name, rng)
	if net == nil {
		return nil, fmt.Errorf("core: no scaled variant of %q", name)
	}
	nn.Train(net, l.Train, labBatch, labEpochs, nn.NewSGD(labLR, labMomentum))
	if l.trained == nil {
		l.trained = map[string]*nn.Sequential{}
	}
	l.trained[name] = net
	return net, nil
}

// Accuracy evaluates a network at the operating point o (nil: the full
// network) on the lab's held-out test set.
func (l *Lab) Accuracy(net *nn.Sequential, o *nn.ForwardOpts) float64 {
	return net.Accuracy(l.Test.X, l.Test.Labels, o)
}

// Entropy measures a network's mean output uncertainty at the operating
// point o (nil: the full network) on the test set.
func (l *Lab) Entropy(net *nn.Sequential, o *nn.ForwardOpts) float64 {
	return entropy.Mean(net.PredictWith(l.Test.X, o))
}
