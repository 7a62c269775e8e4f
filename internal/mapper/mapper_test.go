package mapper

import (
	"testing"
	"testing/quick"

	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

func conv(h, c, r, m int) workload.Layer {
	return workload.Layer{Name: "t", Kind: workload.Conv,
		H: h, W: h, C: c, R: r, S: r, M: m, Stride: 1, Pad: r / 2}
}

func TestSingleTileLayer(t *testing.T) {
	l := conv(8, 4, 3, 16) // RSC = 36, M = 16
	tiles := Tiles(l, 256, 64, 1)
	if len(tiles) != 1 {
		t.Fatalf("got %d tiles, want 1", len(tiles))
	}
	tl := tiles[0]
	if tl.Rows != 36 || tl.Filters != 16 || tl.Cols != 16 || tl.Regs != 1 {
		t.Fatalf("tile wrong: %+v", tl)
	}
	if !tl.FirstRowTile || tl.Channel != -1 || tl.Channels != 4 {
		t.Fatalf("tile metadata wrong: %+v", tl)
	}
}

func TestRowAndColumnTiling(t *testing.T) {
	l := conv(8, 64, 3, 200) // RSC = 576, M = 200
	tiles := Tiles(l, 256, 64, 1)
	// 3 row tiles × 4 column tiles (200/64 → 64,64,64,8).
	if len(tiles) != 12 {
		t.Fatalf("got %d tiles, want 12", len(tiles))
	}
	first, last := tiles[0], tiles[len(tiles)-1]
	if first.Rows != 256 || last.Rows != 64 {
		t.Fatalf("row tiling wrong: first %d, last %d", first.Rows, last.Rows)
	}
	if !first.FirstRowTile || last.FirstRowTile {
		t.Fatal("FirstRowTile must mark only the first row tile")
	}
	if last.Filters != 8 || last.Cols != 8 {
		t.Fatalf("tail column tile wrong: %+v", last)
	}
}

func TestRegistersEngageOnlyWhenNeeded(t *testing.T) {
	// 40 filters on a 64-wide array: one register plane suffices.
	few := Tiles(conv(8, 1, 3, 40), 256, 64, 8)
	if len(few) != 1 || few[0].Regs != 1 || few[0].Cols != 40 {
		t.Fatalf("narrow layer must not engage registers: %+v", few)
	}
	// 512 filters on a 64-wide array with 8 registers: one mapping at 8
	// planes instead of 8 mappings.
	many := Tiles(conv(8, 1, 3, 512), 256, 64, 8)
	if len(many) != 1 || many[0].Regs != 8 || many[0].Cols != 64 {
		t.Fatalf("wide layer must engage all planes: %+v", many)
	}
	// Without registers it takes 8 column tiles.
	if got := Tiles(conv(8, 1, 3, 512), 256, 64, 1); len(got) != 8 {
		t.Fatalf("single-register tiling = %d mappings, want 8", len(got))
	}
}

func TestDepthwiseTiling(t *testing.T) {
	l := workload.Layer{Name: "dw", Kind: workload.DepthwiseConv,
		H: 14, W: 14, C: 32, R: 3, S: 3, M: 32, Stride: 1, Pad: 1}
	tiles := Tiles(l, 256, 64, 8)
	if len(tiles) != 32 {
		t.Fatalf("depthwise must map per channel: %d tiles, want 32", len(tiles))
	}
	for i, tl := range tiles {
		if tl.Rows != 9 || tl.Cols != 1 || tl.Filters != 1 || tl.Regs != 1 {
			t.Fatalf("depthwise tile %d wrong: %+v", i, tl)
		}
		if tl.Channel != i {
			t.Fatalf("depthwise tile %d channel = %d", i, tl.Channel)
		}
	}
}

func TestPoolHasNoTiles(t *testing.T) {
	p := workload.Layer{Name: "p", Kind: workload.Pool,
		H: 8, W: 8, C: 4, R: 2, S: 2, M: 4, Stride: 2}
	if got := Tiles(p, 256, 64, 1); got != nil {
		t.Fatalf("pool layers map no tiles, got %v", got)
	}
	if got := Classes(p, 256, 64, 1); got != nil {
		t.Fatalf("pool layers have no tile classes, got %v", got)
	}
}

// A pool layer maps no tiles and no classes at any geometry, and tile
// mapping is a pure function: no lookup leaves state in a registered cache.
func TestTilesPoolBypassesCache(t *testing.T) {
	simcache.ClearAll()
	t.Cleanup(simcache.ClearAll)
	p := workload.Layer{Name: "pool", Kind: workload.Pool, H: 14, W: 14, C: 8, R: 2, S: 2, M: 8, Stride: 2}
	if got := Tiles(p, 64, 64, 2); got != nil {
		t.Errorf("pool layer produced tiles: %+v", got)
	}
	if got := Classes(p, 64, 64, 2); got != nil {
		t.Errorf("pool layer produced tile classes: %+v", got)
	}
	Tiles(conv(14, 8, 3, 100), 64, 64, 2)
	Classes(conv(14, 8, 3, 100), 64, 64, 2)
	for _, st := range simcache.Snapshot() {
		if st.Entries != 0 || st.Hits+st.Misses != 0 {
			t.Errorf("tile mapping touched cache %s: %+v", st.Name, st)
		}
	}
}

// Property: MAC conservation — the tiles of any layer cover exactly the
// layer's MAC count, with no overlap and no gap, for any array geometry.
func TestTileMACConservationProperty(t *testing.T) {
	f := func(h8, c8, m8, hgt8, wid8, regs8 uint8) bool {
		l := conv(3+int(h8)%10, 1+int(c8)%32, 3, 1+int(m8)%300)
		height := 8 << (hgt8 % 6) // 8..256
		width := 4 << (wid8 % 5)  // 4..64
		regs := 1 << (regs8 % 4)  // 1..8
		var total int64
		for _, tl := range Tiles(l, height, width, regs) {
			if tl.Rows > height || tl.Cols > width || tl.Regs > regs {
				return false
			}
			if tl.Filters > tl.Cols*tl.Regs {
				return false
			}
			total += tl.MACs(1, int64(l.OutH()*l.OutW()))
		}
		return total == l.MACs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: filter coverage is a partition — every filter belongs to
// exactly one column tile per row tile.
func TestFilterPartitionProperty(t *testing.T) {
	f := func(m8, wid8, regs8 uint8) bool {
		l := conv(6, 2, 3, 1+int(m8))
		width := 4 << (wid8 % 5)
		regs := 1 << (regs8 % 4)
		covered := map[int]int{}
		for _, tl := range Tiles(l, 1000, width, regs) {
			for f := tl.ColBase; f < tl.ColBase+tl.Filters; f++ {
				covered[f]++
			}
		}
		if len(covered) != l.M {
			return false
		}
		for _, n := range covered {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
