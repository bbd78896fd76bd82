package tech

// Hooks for the dead-input test in package tech_test, which solves
// through packages that import tech. It perturbs the tables New and
// the overlay providers copy from, one input at a time.

// BaseTable returns the base node's table, the one New copies.
func BaseTable(n Node) *Technology { return baseTechnologies[n] }

// OverlayCells returns each overlay provider's per-node cell table, by
// the RAM type the provider pins.
func OverlayCells() map[RAMType]map[Node]CellParams {
	return map[RAMType]map[Node]CellParams{STTRAM: sttramCells, PCM: pcmCells, GAINCELL: gainCellCells}
}

// ClearInterpolated empties the interpolation memo, so the next New of
// an interpolated node mixes the base tables as they are now.
func ClearInterpolated() {
	interpMemo.Lock()
	interpMemo.m = nil
	interpMemo.Unlock()
}
