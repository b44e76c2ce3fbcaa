package expr

import "sync"

// SymTab maps symbol names to dense slot indices. It is the bridge between
// the name-based world of expression construction and the slot-based world
// of compiled evaluation: a Program compiled against a SymTab refers to
// symbols by slot, and a Frame built from the same SymTab is the register
// file those slots index.
//
// Slots are assigned in first-intern order and never change, so any
// deterministic compilation order yields a stable name→slot mapping (the
// property the per-component cache keys and golden tests rely on). A SymTab
// is safe for concurrent use; in practice all slots are assigned during
// analysis and later use is read-only.
type SymTab struct {
	mu    sync.RWMutex
	names []string
	index map[string]int
}

// NewSymTab returns an empty symbol table.
func NewSymTab() *SymTab {
	return &SymTab{index: map[string]int{}}
}

// Slot returns the slot of name, assigning the next free slot on first use.
func (t *SymTab) Slot(name string) int {
	t.mu.RLock()
	i, ok := t.index[name]
	t.mu.RUnlock()
	if ok {
		return i
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index[name]; ok {
		return i
	}
	i = len(t.names)
	t.names = append(t.names, name)
	t.index[name] = i
	return i
}

// Lookup returns the slot of name without assigning one.
func (t *SymTab) Lookup(name string) (int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.index[name]
	return i, ok
}

// Name returns the name owning the given slot.
func (t *SymTab) Name(slot int) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names[slot]
}

// Len returns the number of assigned slots.
func (t *SymTab) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// Names returns a copy of the names in slot order.
func (t *SymTab) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.names...)
}

// Frame is a flat register file of symbol bindings indexed by SymTab slot:
// the hot-path replacement for Env maps. A Frame belongs to one goroutine
// at a time (it is deliberately not synchronized — give each worker its
// own) and is reused across evaluations: Set overwrites a slot in place,
// Reset clears every binding, and the embedded scratch stack makes compiled
// Program evaluation allocation-free after first use.
type Frame struct {
	tab   *SymTab
	vals  []int64
	bound []bool
	stack []int64 // Program evaluation scratch, grown on demand
}

// NewFrame returns an empty frame sized for the table's current slots. The
// frame grows transparently if further slots are assigned later.
func (t *SymTab) NewFrame() *Frame {
	n := t.Len()
	return &Frame{tab: t, vals: make([]int64, n), bound: make([]bool, n)}
}

// Tab returns the symbol table the frame indexes.
func (f *Frame) Tab() *SymTab { return f.tab }

// Reset clears every binding (the slots stay allocated).
func (f *Frame) Reset() {
	for i := range f.bound {
		f.bound[i] = false
	}
}

func (f *Frame) grow(slot int) {
	for len(f.vals) <= slot {
		f.vals = append(f.vals, 0)
		f.bound = append(f.bound, false)
	}
}

// Set binds the slot to v.
func (f *Frame) Set(slot int, v int64) {
	if slot >= len(f.vals) {
		f.grow(slot)
	}
	f.vals[slot] = v
	f.bound[slot] = true
}

// SetName binds the named symbol, reporting false if the table has no slot
// for it (the symbol then cannot appear in any compiled program, so there
// is nothing to bind).
func (f *Frame) SetName(name string, v int64) bool {
	slot, ok := f.tab.Lookup(name)
	if !ok {
		return false
	}
	f.Set(slot, v)
	return true
}

// Get returns the slot's value and whether it is bound. Slots beyond the
// frame's current size read as unbound.
func (f *Frame) Get(slot int) (int64, bool) {
	if slot >= len(f.vals) || !f.bound[slot] {
		return 0, false
	}
	return f.vals[slot], true
}

// GetName is Get by symbol name.
func (f *Frame) GetName(name string) (int64, bool) {
	slot, ok := f.tab.Lookup(name)
	if !ok {
		return 0, false
	}
	return f.Get(slot)
}

// Bind sets every binding of env whose name has a slot; names unknown to
// the table are ignored (no compiled program can read them). Existing
// bindings not mentioned by env are left in place — call Reset first for a
// from-scratch load.
func (f *Frame) Bind(env Env) {
	for name, v := range env {
		f.SetName(name, v)
	}
}

// FrameOf builds a fresh frame bound to env: the Env→Frame adapter for
// callers that hold an Env. Bind once per binding, then evaluate (or
// predict) on the frame as often as needed.
func (t *SymTab) FrameOf(env Env) *Frame {
	f := t.NewFrame()
	f.Bind(env)
	return f
}
