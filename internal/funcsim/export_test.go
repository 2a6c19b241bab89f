package funcsim

import "specmpk/internal/mem"

// flushMemo empties the machine's translation memo, so the next load or
// store reads the page table and the frame map afresh.
func (m *Machine) flushMemo() { m.memo = mem.Memo{} }
