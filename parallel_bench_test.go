// Benchmarks for the parallel decision procedures: concurrent CheckAll,
// property-portfolio batching, and frontier-parallel graph
// construction, each against its serial twin so `scripts/benchcmp` can
// show the parallel/serial ratio directly. On a single-core runner
// (GOMAXPROCS=1) the parallel variants measure coordination overhead
// rather than speedup; see BENCH_03.json for the methodology notes.
package relive_test

import (
	"fmt"
	"testing"

	"relive"
	"relive/internal/core"
	"relive/internal/paper"
	"relive/internal/petri"
	"relive/internal/ts"
)

func checkAllOperands(b *testing.B) (*ts.System, core.Property) {
	b.Helper()
	sys, err := paper.Fig2System()
	if err != nil {
		b.Fatal(err)
	}
	return sys, core.FromFormula(paper.PropertyInfResults(), nil)
}

func BenchmarkCheckAllSerial(b *testing.B) {
	sys, p := checkAllOperands(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckAllCellsCtx(nil, nil, core.NewPipelineCells(sys, p), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckAllParallel(b *testing.B) {
	sys, p := checkAllOperands(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckAllCellsCtx(nil, nil, core.NewPipelineCells(sys, p), 3); err != nil {
			b.Fatal(err)
		}
	}
}

func portfolioOperands(b *testing.B) (*ts.System, []core.Property) {
	b.Helper()
	sys, err := paper.Fig2System()
	if err != nil {
		b.Fatal(err)
	}
	props := []core.Property{
		core.FromFormula(paper.PropertyInfResults(), nil),
		core.FromFormula(relive.MustParseLTL("G F request"), nil),
		core.FromFormula(relive.MustParseLTL("G (request -> F (result | reject))"), nil),
		core.FromFormula(relive.MustParseLTL("F G reject"), nil),
	}
	return sys, props
}

func BenchmarkPortfolioSerial(b *testing.B) {
	sys, props := portfolioOperands(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckPortfolioCtx(nil, nil, sys, props, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPortfolioParallel(b *testing.B) {
	sys, props := portfolioOperands(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckPortfolioCtx(nil, nil, sys, props, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRing is a bounded token-ring net whose reachability graph is
// large enough for the frontier phases to matter.
func benchRing(tokens int) *petri.Net {
	n := petri.New()
	n.AddPlace("p0", tokens)
	n.AddPlace("p1", 0)
	n.AddPlace("p2", 0)
	n.AddPlace("p3", 0)
	move := func(name, from, to string) {
		n.AddTransition(name, map[string]int{from: 1}, map[string]int{to: 1})
	}
	move("t01", "p0", "p1")
	move("t12", "p1", "p2")
	move("t23", "p2", "p3")
	move("t30", "p3", "p0")
	move("t02", "p0", "p2")
	move("t13", "p1", "p3")
	return n
}

func BenchmarkReachabilitySerial(b *testing.B) {
	net := benchRing(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.ReachabilityGraph(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReachabilityParallel(b *testing.B) {
	net := benchRing(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.ReachabilityGraphParallel(0, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func productOperand(b *testing.B, i int) *relive.System {
	b.Helper()
	sys, err := relive.ParseSystemString(fmt.Sprintf(`
init idle%[1]d
idle%[1]d req%[1]d busy%[1]d
busy%[1]d work%[1]d done%[1]d
done%[1]d res%[1]d idle%[1]d
`, i))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkProductSerial(b *testing.B) {
	x, y, z := productOperand(b, 0), productOperand(b, 1), productOperand(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xy, err := relive.ProductSystem(x, y)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := relive.ProductSystem(xy, z); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProductParallel(b *testing.B) {
	x, y, z := productOperand(b, 0), productOperand(b, 1), productOperand(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xy, err := relive.ProductSystemParallel(x, y, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := relive.ProductSystemParallel(xy, z, 4); err != nil {
			b.Fatal(err)
		}
	}
}
