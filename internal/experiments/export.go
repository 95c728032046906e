package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report bundles experiment results into one JSON-serializable
// document, for downstream plotting or regression tracking: GET
// /v1/report and spec17 -json both serve it. It holds 25 of the
// registry's 29 experiments — every one but fig5, fig6 (Table6 carries
// their rows), table9-extended and noise — plus the rate-INT
// dendrogram, which has no registry entry. Heavy in-memory objects
// (fitted PCA spaces, dendrogram trees) are omitted; the rendered
// forms and the numbers the paper reports are included.
type Report struct {
	Table1 []Table1Row
	Table2 []RangeRow
	Fig1   []StackRow

	Fig2, Fig3, Fig4, RateINT *DendrogramResult

	Table5 []SubsetRow
	Table6 []*ValidationRow

	Fig7, Fig8 *InputSetResult
	Table7     []RepresentativeInput
	RateSpeed  []RateSpeedRow

	Fig9        *ScatterResult
	Fig10DCache *ScatterResult
	Fig10ICache *ScatterResult

	Table8 []DomainRow

	Fig11Planes    []CoverageResult
	Fig11Uncovered []string
	Fig12Coverage  *CoverageResult
	Fig13          *EmergingResult

	Table9 []SensitivityTable

	RateScaling    []RateScalingRow
	TreeSimilarity []TreeSimilarityRow

	AblationLinkage   []LinkageRow
	AblationWeighting []WeightingRow
	AblationPCs       []PCSelectionRow
	SubsetSweep       []SubsetSizeRow
}

// BuildReport runs the report's experiments on the lab through their
// registry descriptors, so each field holds exactly what the same id
// serves on its own. The first failure is returned as "id: err".
func BuildReport(lab *Lab) (*Report, error) {
	r := &Report{}
	var (
		fig10 *Fig10Result
		fig11 *Fig11Result
		fig12 *Fig12Result
	)
	for _, fill := range []func(*Lab) error{
		into("table1", &r.Table1),
		into("table2", &r.Table2),
		into("fig1", &r.Fig1),
		into("fig2", &r.Fig2),
		into("fig3", &r.Fig3),
		into("fig4", &r.Fig4),
		into("table5", &r.Table5),
		into("table6", (*Table6Result)(&r.Table6)), // same underlying type
		into("fig7", &r.Fig7),
		into("fig8", &r.Fig8),
		into("table7", &r.Table7),
		into("ratespeed", &r.RateSpeed),
		into("fig9", &r.Fig9),
		into("fig10", &fig10),
		into("table8", &r.Table8),
		into("fig11", &fig11),
		into("fig12", &fig12),
		into("fig13", &r.Fig13),
		into("table9", &r.Table9),
		into("ablation-linkage", &r.AblationLinkage),
		into("ablation-weighting", &r.AblationWeighting),
		into("ablation-pcs", &r.AblationPCs),
		into("subset-sweep", &r.SubsetSweep),
		into("rate-scaling", &r.RateScaling),
		into("tree-similarity", &r.TreeSimilarity),
	} {
		if err := fill(lab); err != nil {
			return nil, err
		}
	}
	r.Fig10DCache, r.Fig10ICache = fig10.DCache, fig10.ICache
	r.Fig11Planes, r.Fig11Uncovered = fig11.Planes, fig11.Uncovered
	r.Fig12Coverage = fig12.Coverage

	var err error
	if r.RateINT, err = RateINTDendrogram(lab); err != nil {
		return nil, fmt.Errorf("rate-int dendrogram: %w", err)
	}
	return r, nil
}

// into returns a step that runs registry experiment id and stores its
// result in *dst, failing if the result is not a T.
func into[T any](id string, dst *T) func(*Lab) error {
	return func(lab *Lab) error {
		d, ok := Lookup(id)
		if !ok {
			return UnknownIDError(id)
		}
		v, err := d.Run(lab)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		res, ok := v.(T)
		if !ok {
			return fmt.Errorf("%s: result is %T, want %T", id, v, res)
		}
		*dst = res
		return nil
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("experiments: encoding report: %w", err)
	}
	return nil
}
