package dataload

import (
	"encoding/json"
	"testing"

	"ckprivacy/internal/anonymize"
)

// FuzzFromSpec drives arbitrary JSON through the dataset-registration
// trust boundary: decode into a Spec (the wire format of POST
// /v1/datasets), FromSpec, then the registration and default-read path —
// build the Problem, resolve the default levels, bucketize. Every input
// must end in an error or a result, never a panic, and a result must
// cover every row.
func FuzzFromSpec(f *testing.F) {
	seeds := []Spec{miniSpec(), levelledSpec()}
	// TestSpecCSVEdgeCases' bodies: empty, header only, ragged, unknown
	// sensitive value, valid.
	for _, csv := range []string{"", "City,Ill\n", "City,Ill\na\n", "City,Ill\na,maybe\n", "City,Ill\na,y\n"} {
		seeds = append(seeds, cityIllSpec(csv))
	}
	for _, spec := range seeds {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		b, err := FromSpec("fuzz", spec)
		if err != nil {
			return
		}
		p, err := anonymize.NewProblem(b.Table, b.Hierarchies, b.QI)
		if err != nil {
			return
		}
		node, err := p.NodeForLevels(b.DefaultLevels)
		if err != nil {
			return
		}
		bz, err := p.Bucketize(node)
		if err != nil {
			return
		}
		if bz.Size() != b.Table.Len() {
			t.Errorf("bucketization covers %d of %d rows", bz.Size(), b.Table.Len())
		}
	})
}
