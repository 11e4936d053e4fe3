package main

import (
	"strings"
	"testing"

	"repro/internal/sched/batch"
)

// TestCompare proves the report comparison still detects (and still
// ignores) what it should, on synthetic reports.
func TestCompare(t *testing.T) {
	base := &batch.BenchReport{Cells: []batch.BenchCell{
		{Loop: "LL1", FUs: 2, Technique: "grip", Speedup: 1.833, WallMS: 120},
		{Loop: "LL1", FUs: 2, Technique: "post", Speedup: 1.833, WallMS: 80},
		{Loop: "LL2", FUs: 4, Technique: "grip", Speedup: 2.5, WallMS: 2},
		// A sweep pair: same (loop, fus, technique), distinct configs —
		// the config must key the cells apart.
		{Loop: "LL1", FUs: 2, Technique: "grip", Config: "cfg|u=24", Speedup: 1.9, WallMS: 60},
	}}
	same := &batch.BenchReport{Cells: []batch.BenchCell{
		{Loop: "LL1", FUs: 2, Technique: "grip", Speedup: 1.833, WallMS: 130},
		{Loop: "LL1", FUs: 2, Technique: "post", Speedup: 1.833, WallMS: 75},
		{Loop: "LL2", FUs: 4, Technique: "grip", Speedup: 2.5, WallMS: 200}, // under min-ms in base: skipped
		{Loop: "LL4", FUs: 2, Technique: "modulo", Speedup: 1.0, WallMS: 1}, // new cell: not a regression
		{Loop: "LL1", FUs: 2, Technique: "grip", Config: "cfg|u=24", Speedup: 1.9, WallMS: 65},
	}}
	bad := &batch.BenchReport{Cells: []batch.BenchCell{
		{Loop: "LL1", FUs: 2, Technique: "grip", Speedup: 1.833, WallMS: 400}, // 3.3x: wall regression
		{Loop: "LL1", FUs: 2, Technique: "post", Speedup: 1.900, WallMS: 80},  // speedup drift
		{Loop: "LL2", FUs: 4, Technique: "grip", Speedup: 2.5, WallMS: 3},
	}}

	clean := compare(base, same, 1.5, 5, true)
	if len(clean.Regressions) != 0 {
		t.Fatalf("clean diff reported regressions: %v", clean.Regressions)
	}
	if clean.Compared != 4 {
		t.Fatalf("compared %d cells, want 4 (config cells must not collide)", clean.Compared)
	}
	dirty := compare(base, bad, 1.5, 5, true)
	if len(dirty.Regressions) != 2 {
		t.Fatalf("want 2 regressions (wall + speedup), got %v", dirty.Regressions)
	}
	// A report whose cells all carry a config the baseline lacks
	// matches nothing: that must fail, not print "no regressions".
	disjoint := &batch.BenchReport{Cells: []batch.BenchCell{
		{Loop: "LL1", FUs: 2, Technique: "grip", Config: "cfg|u=48", Speedup: 1.833, WallMS: 120},
	}}
	if empty := compare(base, disjoint, 1.5, 5, true); empty.Compared != 0 || len(empty.Regressions) != 1 {
		t.Fatalf("disjoint diff compared %d cells with regressions %v, want 0 and 1",
			empty.Compared, empty.Regressions)
	}
	if fresh := compare(&batch.BenchReport{}, same, 1.5, 5, true); len(fresh.Regressions) != 0 {
		t.Fatalf("an empty baseline reported regressions: %v", fresh.Regressions)
	}
}

// TestCompareGobench proves the -gobench parser and comparison still
// detect (and still ignore) what they should.
func TestCompareGobench(t *testing.T) {
	const oldTxt = `goos: linux
BenchmarkGaplessMove-8      7000000	       150.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCondFourSearch-8 300000000	         3.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkMigrationStep-8        100	   9000000 ns/op	  500000 B/op	    2000 allocs/op
PASS
`
	const sameTxt = `BenchmarkGaplessMove-16     7000000	       170.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCondFourSearch-16 300000000	         4.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkMigrationStep-16       100	  10000000 ns/op	  505000 B/op	    2000 allocs/op
BenchmarkNewThing-16           1000	      1000 ns/op	       0 B/op	       0 allocs/op
`
	const badTxt = `BenchmarkGaplessMove-8       100000	     40000.0 ns/op	     160 B/op	       3 allocs/op
BenchmarkCondFourSearch-8 300000000	         3.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkMigrationStep-8        100	   9500000 ns/op	  520000 B/op	    1500 allocs/op
`
	parse := func(s string) map[string]gobenchResult {
		m, err := parseGobenchFrom(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// The clean run's MigrationStep grows B/op by 1%, inside the 2%
	// bound; the dirty run's grows it by 4% while cutting allocs/op,
	// which must not buy the bytes back.
	clean := compareGobench(parse(oldTxt), parse(sameTxt), 4)
	if len(clean.Regressions) != 0 || clean.Compared != 3 || len(clean.OnlyNew) != 1 {
		t.Fatalf("clean gobench diff: compared %d, regressions %v, new %v",
			clean.Compared, clean.Regressions, clean.OnlyNew)
	}
	dirty := compareGobench(parse(oldTxt), parse(badTxt), 4)
	// GaplessMove: ns/op blowup, allocs/op and B/op growth from zero;
	// MigrationStep: B/op growth alone.
	if len(dirty.Regressions) != 4 || !strings.HasPrefix(dirty.Regressions[3], "BenchmarkMigrationStep: B/op grew") {
		t.Fatalf("dirty gobench diff: want 4 regressions, the last on MigrationStep's B/op, got %v", dirty.Regressions)
	}
}
