package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestBenchFileKeepsRetiredColumns locks the history guarantee of the
// bench file: upserting a new entry re-encodes every earlier entry as it
// was read, so columns this build no longer measures survive a rewrite.
func TestBenchFileKeepsRetiredColumns(t *testing.T) {
	const old = `{"entries":[{"label":"old","gomaxprocs":2,"reps":1,"rows":[{"faults":"SAF","complexity":4,"test":"t","sequential_ns":1,"parallel_ns":1,"warm_cache_ns":1,"speedup_parallel":1,"speedup_warm_cache":1,"warm_cache_hits":0,"warm_cache_misses":0,"warm_cache_evictions":0,"pool_workers":1,"pool_utilization":0,"solver_nodes_warm":6}]}]}`
	f, err := DecodeBenchFile([]byte(old))
	if err != nil {
		t.Fatal(err)
	}
	f.Upsert(BenchEntry{Label: "new", Rows: []BenchRow{{Faults: "SAF", Complexity: 4}}})
	enc, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), `"solver_nodes_warm":6`) {
		t.Fatalf("rewrite dropped the retired column: %s", enc)
	}
	back, err := DecodeBenchFile(enc)
	if err != nil {
		t.Fatal(err)
	}
	if e := back.Entry("new"); e == nil || len(e.Rows) != 1 || e.Rows[0].Complexity != 4 {
		t.Fatalf("new entry did not round-trip: %+v", e)
	}
}
