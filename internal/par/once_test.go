package par

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOnceMapComputesEachKeyOnce: concurrent callers of a key share one
// computation and its result, error included, while other keys compute
// independently.
func TestOnceMapComputesEachKeyOnce(t *testing.T) {
	var m OnceMap[int, int]
	var calls [4]atomic.Int32
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := (i + g) % 4
				v, err := m.Get(key, func() (int, error) {
					calls[key].Add(1)
					if key == 3 {
						return 0, boom
					}
					return key * 10, nil
				})
				if key == 3 && !errors.Is(err, boom) || key != 3 && (err != nil || v != key*10) {
					t.Errorf("key %d: got %d, %v", key, v, err)
				}
			}
		}()
	}
	wg.Wait()
	for key := range calls {
		if n := calls[key].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", key, n)
		}
	}
}
