package machine

// CheckAddrs is the address check Run and RunMulti make before they
// build anything, for copies copies of w.
func (m *Machine) CheckAddrs(w Workload, copies int) error {
	return m.checkAddrs(w, m.adjustSpec(w), copies)
}

// AddrLimit is the bound below which every cache and TLB level of m
// can tag an address.
func (m *Machine) AddrLimit() uint64 { return m.addrLimit }

// CopyStride separates the copies' data address spaces.
const CopyStride = copyStride
