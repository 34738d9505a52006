package cellbe

import (
	"fmt"
	"sort"
)

// Memory is a node's main memory: an address space of a fixed capacity
// handed out by a bump allocator. Addresses handed out are effective
// addresses within the node's EA space (main memory occupies [0, size)).
//
// Only allocated bytes are backed: each Alloc gets its own zeroed slice,
// so a node costs what its programs allocate, not its capacity. A Window
// must lie inside one allocation. Backing never moves, so a window stays
// valid (and aliases the same bytes) across later allocations.
type Memory struct {
	size    int64
	brk     int64
	regions []region // sorted by base: the allocator only moves up
}

// region is one allocation's backing.
type region struct {
	base int64
	data []byte
}

// NewMemory creates a main memory of the given capacity.
func NewMemory(size int) *Memory {
	return &Memory{size: int64(size)}
}

// Size reports total capacity in bytes.
func (m *Memory) Size() int { return int(m.size) }

// Alloc reserves n bytes aligned to align and returns the base address.
func (m *Memory) Alloc(n, align int) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("cellbe: negative allocation %d", n)
	}
	if align <= 0 {
		align = 1
	}
	base := int64(Align(int(m.brk), align))
	if base+int64(n) > m.size {
		return 0, fmt.Errorf("cellbe: main memory exhausted (want %d bytes at %#x of %d)", n, base, m.size)
	}
	m.brk = base + int64(n)
	m.regions = append(m.regions, region{base: base, data: make([]byte, n)})
	return base, nil
}

// Window returns a mutable view of [addr, addr+n). The range must lie
// inside one allocation; a zero-length window only needs to be in range.
func (m *Memory) Window(addr int64, n int) ([]byte, error) {
	if addr < 0 || n < 0 || addr+int64(n) > m.size {
		return nil, fmt.Errorf("cellbe: main memory access [%#x,+%d) out of range", addr, n)
	}
	if n == 0 {
		return []byte{}, nil
	}
	// The last region starting at or below addr is the only candidate.
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].base > addr }) - 1
	if i >= 0 {
		r := m.regions[i]
		off := addr - r.base
		if end := off + int64(n); end <= int64(len(r.data)) {
			return r.data[off:end:end], nil
		}
	}
	return nil, fmt.Errorf("cellbe: main memory access [%#x,+%d) is not inside one allocation", addr, n)
}

// InUse reports the high-water mark of the allocator.
func (m *Memory) InUse() int64 { return m.brk }
