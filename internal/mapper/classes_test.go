package mapper

// Classes is the closed form the cycle models charge by, Tiles the walk the
// functional array executes. These tests pin that the two describe the same
// mappings: every tile falls in exactly one class, with the class's charged
// fields, so count-weighted sums over Classes equal per-tile sums over
// Tiles.

import (
	"math/rand"
	"testing"

	"supernpu/internal/workload"
)

// charged is the part of a tile the cycle models read.
type charged struct {
	Rows, Filters, Cols, Regs, Channels int
	FirstRowTile                        bool
}

func chargedOf(t Tile) charged {
	return charged{t.Rows, t.Filters, t.Cols, t.Regs, t.Channels, t.FirstRowTile}
}

// tileSums are the per-tile quantities a layer's charges add up.
type tileSums struct {
	Mappings, Rows, Filters, Cols, Regs, RowsRegs, Channels, FirstRow int
	MACs                                                              int64
}

func (s *tileSums) add(t Tile, n int, ef int64) {
	s.Mappings += n
	s.Rows += n * t.Rows
	s.Filters += n * t.Filters
	s.Cols += n * t.Cols
	s.Regs += n * t.Regs
	s.RowsRegs += n * t.Rows * t.Regs
	s.Channels += n * t.Channels
	if t.FirstRowTile {
		s.FirstRow += n
	}
	s.MACs += int64(n) * t.MACs(3, ef)
}

// checkClasses asserts that Classes partitions Tiles of one layer.
func checkClasses(t *testing.T, l workload.Layer, height, width, registers int) {
	t.Helper()
	tiles := Tiles(l, height, width, registers)
	classes := Classes(l, height, width, registers)
	ef := int64(l.OutH() * l.OutW())

	if len(classes) > 6 {
		t.Errorf("%+v on %dx%dx%d: %d classes, want at most 6", l, height, width, registers, len(classes))
	}
	if l.Kind == workload.DepthwiseConv && len(classes) != 1 {
		t.Errorf("depthwise %+v: %d classes, want 1", l, len(classes))
	}

	var fromTiles, fromClasses tileSums
	counts := map[charged]int{}
	first := map[charged]Tile{}
	for _, tl := range tiles {
		fromTiles.add(tl, 1, ef)
		k := chargedOf(tl)
		if counts[k] == 0 {
			first[k] = tl
		}
		counts[k]++
	}
	seen := map[charged]bool{}
	for _, c := range classes {
		fromClasses.add(c.Tile, c.Count, ef)
		k := chargedOf(c.Tile)
		if seen[k] {
			t.Errorf("%+v: two classes share tile shape %+v", l, k)
		}
		seen[k] = true
		if counts[k] != c.Count {
			t.Errorf("%+v on %dx%dx%d: class %+v counts %d tiles, Tiles has %d",
				l, height, width, registers, k, c.Count, counts[k])
		}
		if first[k] != c.Tile {
			t.Errorf("%+v: class tile %+v, want the first such tile %+v", l, c.Tile, first[k])
		}
	}
	if len(seen) != len(counts) {
		t.Errorf("%+v: %d classes for %d distinct tile shapes", l, len(seen), len(counts))
	}
	if fromTiles != fromClasses {
		t.Errorf("%+v on %dx%dx%d: class sums %+v, tile sums %+v",
			l, height, width, registers, fromClasses, fromTiles)
	}
}

// layerFrom builds a Conv, FC or depthwise layer from bounded draws; ok is
// false when the draws do not make a valid layer.
func layerFrom(kind, hw, c, rs, m, stride, pad int) (workload.Layer, bool) {
	l := workload.Layer{Name: "l", Kind: []workload.Kind{workload.Conv, workload.FullyConnected, workload.DepthwiseConv}[kind%3],
		H: 1 + hw%32, W: 1 + hw%32, C: 1 + c%96, R: 1 + rs%7, S: 1 + rs%7, M: 1 + m%300,
		Stride: 1 + stride%3, Pad: pad % 3}
	switch l.Kind {
	case workload.FullyConnected:
		l.H, l.W, l.R, l.S, l.Stride, l.Pad = 1, 1, 1, 1, 1, 0
	case workload.DepthwiseConv:
		l.M = l.C
	}
	return l, l.Validate() == nil
}

// Property: over random Conv/FC/depthwise shapes and array geometries,
// Classes partitions Tiles. This bounds every layer's charge at six
// closed-form steps (one for depthwise), whatever its tile count.
func TestClassesMatchTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	checked := 0
	for checked < 500 {
		l, ok := layerFrom(rng.Int(), rng.Int(), rng.Int(), rng.Int(), rng.Int(), rng.Int(), rng.Int())
		if !ok {
			continue
		}
		checkClasses(t, l, 16+rng.Intn(300), 1+rng.Intn(96), 1+rng.Intn(8))
		checked++
	}
	// Row and filter counts that land exactly on the array boundaries.
	for _, g := range [][3]int{{36, 16, 1}, {72, 8, 2}, {16, 1, 1}, {18, 16, 1}} {
		checkClasses(t, conv(8, 4, 3, 16), g[0], g[1], g[2])
	}
}

// FuzzClasses widens TestClassesMatchTiles to fuzzer-chosen shapes and
// geometries. Run with
//
//	go test ./internal/mapper -run='^$' -fuzz=FuzzClasses -fuzztime=30s
func FuzzClasses(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint8(3), uint8(2), uint8(15), uint8(0), uint8(1), uint8(20), uint8(16), uint8(0))
	f.Add(uint8(1), uint8(0), uint8(80), uint8(0), uint8(19), uint8(0), uint8(0), uint8(0), uint8(7), uint8(1))
	f.Add(uint8(2), uint8(13), uint8(31), uint8(2), uint8(31), uint8(1), uint8(1), uint8(240), uint8(63), uint8(7))
	f.Fuzz(func(t *testing.T, kind, hw, c, rs, m, stride, pad, height, width, registers uint8) {
		l, ok := layerFrom(int(kind), int(hw), int(c), int(rs), int(m), int(stride), int(pad))
		if !ok {
			return
		}
		checkClasses(t, l, 16+int(height), 1+int(width)%128, 1+int(registers)%8)
	})
}
