package serve

import (
	"sync"
	"testing"

	"pcnn/internal/compile"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

// executorCalls counts the executor's costly calls: plan compilations by
// batch and simulations by (level, batch), identified by the plan's batch
// and the level's keep set.
type executorCalls struct {
	mu       sync.Mutex
	compiles map[int]int
	sims     map[string]int
}

// countExecutorCalls routes every executor's compile and simulate calls
// through a counter until the test ends.
func countExecutorCalls(t *testing.T) *executorCalls {
	c := &executorCalls{compiles: map[int]int{}, sims: map[string]int{}}
	compileWas, simulateWas := compileAtBatch, simulatePlan
	t.Cleanup(func() { compileAtBatch, simulatePlan = compileWas, simulateWas })
	compileAtBatch = func(net *nn.NetShape, dev *gpu.Device, task satisfaction.Task, batch int) (*compile.Plan, error) {
		c.mu.Lock()
		c.compiles[batch]++
		c.mu.Unlock()
		return compileWas(net, dev, task, batch)
	}
	simulatePlan = func(p *compile.Plan, keeps map[string]float64) ([]gpu.Result, gpu.Aggregate, error) {
		c.mu.Lock()
		c.sims[simKey(p.Batch, keeps)]++
		c.mu.Unlock()
		return simulateWas(p, keeps)
	}
	return c
}
