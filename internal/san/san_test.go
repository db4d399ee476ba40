package san

import (
	"sync"
	"testing"

	"cables/internal/sim"
	"cables/internal/stats"
)

// TestConcurrentReserveIsRaceFreeAndConserving: total occupancy booked under
// contention equals the sum of individual occupancies.  The port's freeAt
// is shared by every sender on the node, so bare goroutines race on it here.
func TestConcurrentReserveIsRaceFreeAndConserving(t *testing.T) {
	f := New(2, sim.DefaultCosts(), stats.NewCounters(4))
	const senders, msgs = 8, 50
	occ := f.Costs().Occupancy(4096)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				f.Reserve(0, 0, occ)
			}
		}()
	}
	wg.Wait()
	if free, want := sim.Time(f.ports[0].freeAt.Load()), occ*senders*msgs; free != want {
		t.Errorf("booked occupancy: got %v want %v", free, want)
	}
}
