package experiments

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/sim"
)

// ExpParkingLot extends the multi-bottleneck study (Fig. 11) to the
// k-hop parking-lot topology: one long flow crosses k equal links, each
// also carrying one single-hop cross flow. The max-min allocation gives
// every flow half of a link regardless of k; a scheme that compounds its
// backoff per hop (as pure delay-summing control does) squeezes the long
// flow toward 1/(k+1) or worse as k grows.
func ExpParkingLot(o Opts) *Table {
	t := &Table{
		ID:      "parkinglot",
		Title:   "Parking-lot max-min: long-flow share across k hops (astraea, 50 Mbps links)",
		Columns: []string{"hops", "long_mbps", "short_avg_mbps", "maxmin_long"},
	}
	ks := []int{1, 2, 3, 4}
	trials := o.trials()
	longs := make([]float64, len(ks)*trials)
	shorts := make([]float64, len(ks)*trials)
	// Each job builds its own topology and simulator; jobs write only their
	// own slot, so they fan across the worker pool safely.
	forEach(o, len(longs), func(job int) {
		k, trial := ks[job/trials], job%trials
		longs[job], shorts[job] = runParkingLot(o, int64(2800+trial), k)
	})
	for ki, k := range ks {
		var longSum, shortSum float64
		for trial := 0; trial < trials; trial++ {
			longSum += longs[ki*trials+trial]
			shortSum += shorts[ki*trials+trial]
		}
		n := float64(trials)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), mbps(longSum / n), mbps(shortSum / n), mbps(25e6),
		})
	}
	t.Note = "max-min would give the long flow 25 Mbps at every k. Measured: Astraea's " +
		"delay-targeting tracks the PROPORTIONAL-FAIR allocation 50/(k+1) (16.7/12.5/10 at k=2/3/4) " +
		"almost exactly — the classical equilibrium of congestion control that responds to summed " +
		"per-hop delay (as TCP and Vegas do). The paper's Fig. 11 scenario cannot distinguish the " +
		"two allocations because its second bottleneck is uncontended at the crossover."
	return t
}

func runParkingLot(o Opts, seed int64, k int) (longMbps, shortAvgMbps float64) {
	s := sim.New(seed)
	dur := o.scale(60.0)
	pl := netem.NewParkingLot(s, k, 50e6, 0.030, netem.BDPBytes(50e6, 0.030)*2)

	half := dur / 2
	longBytes := launchCounted(s, 0, pl.LongPath(), half)
	shortBytes := make([]*int64, k)
	for i := 0; i < k; i++ {
		shortBytes[i] = launchCounted(s, 1+i, pl.ShortPath(i), half)
	}
	s.Run(dur)

	window := dur - half
	longRate := float64(*longBytes) * 8 / window
	var shortSum float64
	for _, b := range shortBytes {
		shortSum += float64(*b) * 8 / window
	}
	return longRate, shortSum / float64(k)
}
