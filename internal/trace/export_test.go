package trace

import "repro/internal/rng"

// NewEagerGenerator is NewGenerator with the kernel branch table seeded
// up front, the way NewGenerator seeded it before the table became
// lazy: the hot table, then the kernel table, both from the branch
// stream, whose later draws then decide branch outcomes.
func NewEagerGenerator(spec Spec, key string) (*Generator, error) {
	g, err := NewGenerator(spec, key)
	if err != nil {
		return nil, err
	}
	g.rBranch = *rng.NewKeyed(key, 4)
	seedBranches(g.branches, spec, g.EasyTaken, &g.rBranch)
	g.kbranches = make([]branchState, g.KernelBlocks)
	seedBranches(g.kbranches, spec, g.EasyTaken, &g.rBranch)
	return g, nil
}

// KernelSeeded reports whether g has seeded its kernel branch table.
func (g *Generator) KernelSeeded() bool { return g.kbranches != nil }
