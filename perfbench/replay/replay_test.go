package replay

import (
	"context"
	"testing"

	"marchgen/march"
	"marchgen/perfbench/span"
)

func TestReplayTracesEveryLayer(t *testing.T) {
	rec := span.New()
	r := New(rec, 1)
	ctx := context.Background()
	if err := r.Generate(ctx, 1, "SAF,TF"); err != nil {
		t.Fatal(err)
	}
	kt, _ := march.Known("MarchC-")
	if err := r.Verify(ctx, 2, kt.Test, "SAF"); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, s := range rec.Spans() {
		seen[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %s left open", s.Name)
		}
	}
	for _, layer := range []string{"replay", "fault", "tpg", "atsp", "gts", "sim", "cover"} {
		if seen[layer] == 0 {
			t.Errorf("no %s span in %v", layer, seen)
		}
	}
	c := r.Counts
	if c.Selections == 0 || c.Distinct == 0 || c.Solves == 0 || c.Candidates == 0 || c.Evals <= c.Candidates-1 || c.Complete == 0 || c.CoverCalls != c.Complete {
		t.Errorf("counts %+v", c)
	}
	if seen["sim"] != c.Evals || seen["cover"] != c.CoverCalls {
		t.Errorf("spans %v disagree with counts %+v", seen, c)
	}
}

func TestUntracedReplayRecordsNothing(t *testing.T) {
	r := New(nil, 1)
	if err := r.Generate(context.Background(), 1, "SAF"); err != nil {
		t.Fatal(err)
	}
	if len(r.Counts.Allocs) != 0 {
		t.Errorf("untraced replay read allocations: %v", r.Counts.Allocs)
	}
}
