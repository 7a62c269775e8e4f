// Package mapper computes the weight mappings of a layer onto a
// weight-stationary systolic array: the tiling of the layer's (R·S·C)
// weight positions over the PE rows and of its M filters over the PE
// columns and register planes. The functional cycle-stepped array walks the
// tiles one by one; the cycle-based performance simulators charge the same
// tiles in closed form through their classes, so both models are tied to
// one mapping policy.
package mapper

import "supernpu/internal/workload"

// Tile is one weight mapping.
type Tile struct {
	// RowOffset is the flat (channel, filter-row, filter-column) position
	// of the tile's first PE row; Rows the number of rows occupied.
	RowOffset, Rows int
	// ColBase is the first filter covered; Filters the effective filter
	// count; Cols the PE columns occupied; Regs the register planes
	// engaged. Filters ≤ Cols × Regs.
	ColBase, Filters, Cols, Regs int
	// FirstRowTile marks the tile that starts a fresh set of partial sums
	// for its filters (no psum re-injection needed).
	FirstRowTile bool
	// Channels is the number of input channels the tile's rows touch.
	Channels int
	// Channel is the single input channel of a depthwise tile, else -1.
	Channel int
}

// Class is a set of a layer's tiles that agree on every field a cycle
// model charges by — Rows, Filters, Cols, Regs, Channels and FirstRowTile —
// and so cost the same. Tile is the class's first tile in Tiles order; its
// offsets locate only that tile. Count is the number of tiles in the class.
type Class struct {
	Tile
	Count int
}

// Tiles enumerates the layer's weight mappings on an array of the given
// height (rows), width (columns) and registers per PE. Each call builds a
// fresh slice; the functional array model needs the per-tile offsets, the
// cycle models use Classes instead.
//
// Registers engage only when a tile's filter count exceeds the array width:
// each engaged register plane trades one streaming pass for a column's
// worth of filters, so a tile that fits the columns runs single-register.
//
// Depthwise layers reduce within one channel only, so each channel maps
// separately onto R·S rows and a single column — the structural
// underutilisation the paper observes on MobileNet.
func Tiles(l workload.Layer, height, width, registers int) []Tile {
	if l.Kind == workload.Pool {
		return nil
	}
	if l.Kind == workload.DepthwiseConv {
		tiles := make([]Tile, l.C)
		for c := range tiles {
			tiles[c] = depthwiseTile(l, height, c)
		}
		return tiles
	}

	rsc := l.R * l.S * l.C
	filtersPerTile := width * registers
	var tiles []Tile
	for rowOff := 0; rowOff < rsc; rowOff += height {
		for m := 0; m < l.M; m += filtersPerTile {
			tiles = append(tiles, tile(l, height, width, registers, rowOff, m))
		}
	}
	return tiles
}

// Classes returns the layer's tiles grouped into classes, in Tiles order of
// each class's first tile, so that count-weighted sums over the classes
// equal per-tile sums over Tiles.
//
// The row tiles of a non-depthwise layer are the first one, the full
// continuing ones and a partial tail; its filter tiles are the full
// width·registers ones and a tail. Every tile field the cycle models read
// depends only on which of those it is, so a layer has at most 3×2 = 6
// classes. A depthwise layer's C channel tiles form one class.
func Classes(l workload.Layer, height, width, registers int) []Class {
	if l.Kind == workload.Pool || l.C <= 0 {
		return nil
	}
	if l.Kind == workload.DepthwiseConv {
		return []Class{{Tile: depthwiseTile(l, height, 0), Count: l.C}}
	}
	rsc := l.R * l.S * l.C
	if rsc <= 0 || l.M <= 0 {
		return nil
	}

	// A run is a contiguous span of like tiles: its first offset, length.
	type run struct{ start, count int }
	rowTiles := (rsc + height - 1) / height
	rowRuns := []run{{0, 1}, {height, rowTiles - 1}}
	if rsc%height != 0 && rowTiles > 1 {
		rowRuns = []run{{0, 1}, {height, rowTiles - 2}, {(rowTiles - 1) * height, 1}}
	}
	filtersPerTile := width * registers
	full := l.M / filtersPerTile
	filterRuns := []run{{0, full}, {full * filtersPerTile, min(l.M%filtersPerTile, 1)}}

	classes := make([]Class, 0, len(rowRuns)*len(filterRuns))
	for _, r := range rowRuns {
		for _, f := range filterRuns {
			if n := r.count * f.count; n > 0 {
				classes = append(classes, Class{Tile: tile(l, height, width, registers, r.start, f.start), Count: n})
			}
		}
	}
	return classes
}

// tile builds the non-depthwise tile whose rows start at rowOff and whose
// filters start at colBase.
func tile(l workload.Layer, height, width, registers, rowOff, colBase int) Tile {
	rows := min(height, l.R*l.S*l.C-rowOff)
	filters := min(width*registers, l.M-colBase)
	regs := (filters + width - 1) / width
	return Tile{
		RowOffset: rowOff, Rows: rows,
		ColBase: colBase, Filters: filters, Cols: (filters + regs - 1) / regs, Regs: regs,
		FirstRowTile: rowOff == 0,
		Channels:     (rows + l.R*l.S - 1) / (l.R * l.S),
		Channel:      -1,
	}
}

// depthwiseTile is the mapping of channel c of a depthwise layer: R·S rows
// (clipped to the array height) against that channel's single filter.
func depthwiseTile(l workload.Layer, height, c int) Tile {
	return Tile{
		RowOffset: 0, Rows: min(l.R*l.S, height),
		ColBase: c, Filters: 1, Cols: 1, Regs: 1,
		FirstRowTile: true, Channels: 1, Channel: c,
	}
}

// MACs returns the useful multiply-accumulates of the tile for one output
// map of ef positions and the given batch.
func (t Tile) MACs(batch int, ef int64) int64 {
	return int64(batch) * ef * int64(t.Rows) * int64(t.Filters)
}
