package experiments

import (
	"runtime"
	"testing"
)

// maxAllocsPerPkt bounds heap allocations per delivered packet while a
// network runs. The serial hot path allocates nothing per cycle or per
// packet: events are typed records, arrivals sit in per-link rings,
// arbitration reuses scratch slices and packets come from a free-list.
// What remains is warm-up growth (queue rings, the packet pool, event
// heap) and CAM-line allocations, well under one per packet.
const maxAllocsPerPkt = 0.5

// TestHotPathAllocationGate counts mallocs around Network.Run of a
// Fig. 7a CCFIT cell cut to half its length (congestion included). The count is deterministic for a fixed seed
// (the simulation is single-goroutine), so the bound cannot flake.
func TestHotPathAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	exp, err := ByID("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration /= 2
	p, err := SchemeByName("CCFIT")
	if err != nil {
		t.Fatal(err)
	}
	n, err := exp.Build(p, 1, exp.Bin, exp.Duration, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.Run(exp.Duration)
	runtime.ReadMemStats(&after)
	delivered := Harvest(exp, "CCFIT", 1, n).Summary.DeliveredPkts
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	mallocs := after.Mallocs - before.Mallocs
	perPkt := float64(mallocs) / float64(delivered)
	t.Logf("%d mallocs over %d delivered packets: %.3f per packet", mallocs, delivered, perPkt)
	if perPkt > maxAllocsPerPkt {
		t.Fatalf("%.3f heap allocations per delivered packet, bound %.1f: something on the per-cycle path allocates", perPkt, maxAllocsPerPkt)
	}
}
