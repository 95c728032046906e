// Package branch implements trace-driven branch direction predictors
// (bimodal, gshare, and a bimodal/gshare tournament) with saturating
// two-bit counters. It supplies the paper's branch metrics: branch
// mispredictions per kilo-instruction and taken branches per
// kilo-instruction (Tables II and III, Figure 9).
package branch

import "fmt"

// Kind selects a predictor organization.
type Kind int

const (
	// Bimodal indexes a pattern-history table by PC alone.
	Bimodal Kind = iota
	// GShare XORs the PC with a global history register.
	GShare
	// Tournament runs bimodal and gshare side by side with a chooser
	// table, modelling the hybrid predictors of modern cores.
	Tournament
)

// String returns the predictor kind's conventional name.
func (k Kind) String() string {
	switch k {
	case Bimodal:
		return "bimodal"
	case GShare:
		return "gshare"
	case Tournament:
		return "tournament"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes a predictor.
type Config struct {
	Kind Kind
	// TableBits is log2 of the pattern history table size.
	TableBits int
	// HistoryBits is the global history length (GShare/Tournament).
	HistoryBits int
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.TableBits < 1 || c.TableBits > 24 {
		return fmt.Errorf("branch: table bits %d out of range [1,24]", c.TableBits)
	}
	if (c.Kind == GShare || c.Kind == Tournament) && (c.HistoryBits < 1 || c.HistoryBits > c.TableBits) {
		return fmt.Errorf("branch: history bits %d out of range [1,%d]", c.HistoryBits, c.TableBits)
	}
	switch c.Kind {
	case Bimodal, GShare, Tournament:
		return nil
	default:
		return fmt.Errorf("branch: unknown predictor kind %d", int(c.Kind))
	}
}

// Predictor is a stateful branch direction predictor.
type Predictor struct {
	cfg      Config
	mask     uint64
	bimodal  []uint8 // 2-bit saturating counters
	gshare   []uint8
	chooser  []uint8 // 2-bit: >=2 prefer gshare
	history  uint64
	histMask uint64

	branches    uint64
	mispredicts uint64
	taken       uint64
}

// New builds a predictor from cfg.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	size := 1 << cfg.TableBits
	p := &Predictor{
		cfg:      cfg,
		mask:     uint64(size - 1),
		histMask: (1 << uint(cfg.HistoryBits)) - 1,
	}
	switch cfg.Kind {
	case Bimodal:
		p.bimodal = make([]uint8, size)
	case GShare:
		p.gshare = make([]uint8, size)
	case Tournament:
		p.bimodal = make([]uint8, size)
		p.gshare = make([]uint8, size)
		p.chooser = make([]uint8, size)
	}
	p.Clear()
	return p, nil
}

// Clear returns the predictor to the state New builds: every counter
// weakly taken, empty history, statistics zero. It lets one Predictor
// serve many independent runs without reallocating its tables.
func (p *Predictor) Clear() {
	// Counters start weakly taken (10): conditional branches are taken
	// far more often than not, so this is the cold-start guess real
	// predictors converge to. A chooser at 2 weakly prefers gshare.
	for _, t := range [][]uint8{p.bimodal, p.gshare, p.chooser} {
		for i := range t {
			t[i] = 2
		}
	}
	p.history = 0
	p.ResetStats()
}

// Config returns the configuration the predictor was built with.
func (p *Predictor) Config() Config { return p.cfg }

func counterTaken(c uint8) bool { return c >= 2 }

func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Predict simulates one conditional branch at pc with the actual
// outcome taken, updates all predictor state, and reports whether the
// prediction was correct.
func (p *Predictor) Predict(pc uint64, taken bool) bool {
	p.branches++
	if taken {
		p.taken++
	}

	biIdx := (pc >> 2) & p.mask
	gsIdx := ((pc >> 2) ^ (p.history & p.histMask)) & p.mask

	var pred bool
	switch p.cfg.Kind {
	case Bimodal:
		pred = counterTaken(p.bimodal[biIdx])
		p.bimodal[biIdx] = bump(p.bimodal[biIdx], taken)
	case GShare:
		pred = counterTaken(p.gshare[gsIdx])
		p.gshare[gsIdx] = bump(p.gshare[gsIdx], taken)
	case Tournament:
		bp := counterTaken(p.bimodal[biIdx])
		gp := counterTaken(p.gshare[gsIdx])
		useG := p.chooser[biIdx] >= 2
		if useG {
			pred = gp
		} else {
			pred = bp
		}
		// Train chooser toward whichever component was right.
		if bp != gp {
			p.chooser[biIdx] = bump(p.chooser[biIdx], gp == taken)
		}
		p.bimodal[biIdx] = bump(p.bimodal[biIdx], taken)
		p.gshare[gsIdx] = bump(p.gshare[gsIdx], taken)
	}

	if p.cfg.Kind != Bimodal {
		p.history = ((p.history << 1) | boolBit(taken)) & p.histMask
	}
	correct := pred == taken
	if !correct {
		p.mispredicts++
	}
	return correct
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Counts holds predictor statistics.
type Counts struct {
	Branches, Mispredicts, Taken uint64
}

// Counts returns the statistics since creation or ResetStats.
func (p *Predictor) Counts() Counts {
	return Counts{Branches: p.branches, Mispredicts: p.mispredicts, Taken: p.taken}
}

// MispredictRate returns mispredicts/branches (0 before any branch).
func (p *Predictor) MispredictRate() float64 {
	if p.branches == 0 {
		return 0
	}
	return float64(p.mispredicts) / float64(p.branches)
}

// ResetStats clears the counters but keeps learned state.
func (p *Predictor) ResetStats() { p.branches, p.mispredicts, p.taken = 0, 0, 0 }
