package topology

import (
	"fmt"
	"testing"
)

// benchSparseChain times run on a 4-segment chain at 4 x 0.05 local
// words/cycle per segment; one op advances every segment 10,000 cycles.
func benchSparseChain(b *testing.B, run func(*System, int64) error) {
	const segments, cycles = 4, 10_000
	segs := make([]ChainSegment, segments)
	links := make([]BridgeConfig, segments-1)
	for s := range segs {
		tag := fmt.Sprintf("seg%d", s)
		segs[s] = ChainSegment{Name: tag, Bus: chainSegmentBus(b, 9, tag, 4, s > 0, 0.05)}
		if s > 0 {
			links[s-1] = BridgeConfig{SrcSlave: 1, DstMaster: 0, DstSlave: 0, Delay: 3, FifoCap: 32}
		}
	}
	sys, _, err := NewChain(segs, links)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(sys, cycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cycles*segments), "ns/bus-cycle")
}

// BenchmarkFabricSparseChain times the event-ordered schedule.
func BenchmarkFabricSparseChain(b *testing.B) { benchSparseChain(b, (*System).Run) }

// BenchmarkFabricSparseChainLockStep times the lock-step oracle on the
// same chain, the reference the event schedule's speed-up is gated on.
func BenchmarkFabricSparseChainLockStep(b *testing.B) { benchSparseChain(b, (*System).runLockStep) }
