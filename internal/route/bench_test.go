package route

import (
	"testing"

	"wimc/internal/config"
	"wimc/internal/topo"
)

// graph64 builds the 64-chip, 1024-core wireless preset (1088 switches,
// 128 WIs), the package the saturated 64-chip benchmark constructs.
func graph64(b *testing.B) *topo.Graph {
	b.Helper()
	g, err := topo.BuildWorkers(config.MustXCYM(64, 64, config.ArchWireless), 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkBuildClasses64 measures sequential routing-table construction
// for the 64-chip wireless preset.
func BenchmarkBuildClasses64(b *testing.B) {
	g := graph64(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildClasses(g, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckDeadlockFree64 measures the channel-dependency check of
// the 64-chip wireless preset's tables.
func BenchmarkCheckDeadlockFree64(b *testing.B) {
	g := graph64(b)
	ct, err := BuildClasses(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckDeadlockFreeUnion(g, ct.Tables()...); err != nil {
			b.Fatal(err)
		}
	}
}
