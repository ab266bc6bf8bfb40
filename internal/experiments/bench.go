package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// BenchRow is one fault list's engine measurement in BENCH_generate.json.
// The first block of fields times whole generations (sequential, parallel,
// warm-cache); the kernel block times the coverage-evaluation stage alone,
// bit-parallel kernel against the scalar reference oracle, on the
// generated test and its expanded instance list.
type BenchRow struct {
	Faults       string  `json:"faults"`
	Complexity   int     `json:"complexity"`
	Test         string  `json:"test"`
	SequentialNS int64   `json:"sequential_ns"`
	ParallelNS   int64   `json:"parallel_ns"`
	WarmCacheNS  int64   `json:"warm_cache_ns"`
	SpeedupPar   float64 `json:"speedup_parallel"`
	SpeedupWarm  float64 `json:"speedup_warm_cache"`
	// Warm-phase memo cache traffic: deltas of the process-wide cache
	// counters across the warm-cache repetitions.
	WarmCacheHits      uint64 `json:"warm_cache_hits"`
	WarmCacheMisses    uint64 `json:"warm_cache_misses"`
	WarmCacheEvictions uint64 `json:"warm_cache_evictions"`
	// Pool utilisation of the parallel configuration: the fraction of
	// workers × wall-time the pool's workers spent busy, from a separate
	// instrumented run (the timed runs are observation-free).
	PoolWorkers     int     `json:"pool_workers"`
	PoolUtilization float64 `json:"pool_utilization"`
	// KernelEvalNS / ScalarEvalNS time one coverage evaluation of the
	// generated test against the row's full instance list on each engine
	// (minimum over the file's reps, averaged over an inner loop).
	KernelEvalNS int64 `json:"kernel_eval_ns,omitempty"`
	ScalarEvalNS int64 `json:"scalar_eval_ns,omitempty"`
	// SpeedupKernel is ScalarEvalNS / KernelEvalNS.
	SpeedupKernel float64 `json:"speedup_kernel,omitempty"`
	// KernelAllocsPerOp counts heap allocations per kernel evaluation.
	KernelAllocsPerOp uint64 `json:"kernel_allocs_per_op,omitempty"`
	// ScalarAllocsPerOp counts heap allocations per scalar evaluation.
	ScalarAllocsPerOp uint64 `json:"scalar_allocs_per_op,omitempty"`
}

// BenchEntry is one labelled measurement campaign: a full Table 3 sweep
// taken at one point in the repository's history.
type BenchEntry struct {
	// Label names the engine state the entry measured (e.g. "pre-kernel",
	// "kernel").
	Label string `json:"label"`
	// GoMaxProcs is the GOMAXPROCS of the measuring process.
	GoMaxProcs int `json:"gomaxprocs"`
	// Reps is the repetition count; the minimum time is kept.
	Reps int `json:"reps"`
	// Rows holds one measurement per Table 3 fault list.
	Rows []BenchRow `json:"rows"`

	// raw is the entry as decoded. A decoded entry re-encodes from it,
	// so rewriting the file keeps columns of measurements this build no
	// longer takes (the retired solver-mode columns, say) in the history.
	raw json.RawMessage
}

// UnmarshalJSON decodes the entry and keeps its raw bytes.
func (e *BenchEntry) UnmarshalJSON(data []byte) error {
	type fields BenchEntry
	if err := json.Unmarshal(data, (*fields)(e)); err != nil {
		return err
	}
	e.raw = append(json.RawMessage(nil), data...)
	return nil
}

// MarshalJSON encodes a decoded entry as it was read, and a new one from
// its fields.
func (e BenchEntry) MarshalJSON() ([]byte, error) {
	if e.raw != nil {
		return e.raw, nil
	}
	type fields BenchEntry
	return json.Marshal(fields(e))
}

// BenchFile is the BENCH_generate.json schema: an append-only list of
// labelled entries, so before/after comparisons live in one committed
// file.
type BenchFile struct {
	Entries []BenchEntry `json:"entries"`
}

// legacyBenchFile is the pre-entry schema: one unlabelled sweep.
type legacyBenchFile struct {
	GoMaxProcs int        `json:"gomaxprocs"`
	Reps       int        `json:"reps"`
	Rows       []BenchRow `json:"rows"`
}

// DecodeBenchFile parses BENCH_generate.json content. The legacy
// single-sweep schema (a bare {gomaxprocs, reps, rows} object) is
// accepted and surfaced as one entry labelled "pre-kernel", so history
// written before the schema migration keeps loading.
func DecodeBenchFile(data []byte) (*BenchFile, error) {
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("experiments: parsing bench file: %w", err)
	}
	if f.Entries != nil {
		return &f, nil
	}
	var legacy legacyBenchFile
	if err := json.Unmarshal(data, &legacy); err != nil {
		return nil, fmt.Errorf("experiments: parsing legacy bench file: %w", err)
	}
	if legacy.Rows == nil {
		return nil, fmt.Errorf("experiments: bench file has neither entries nor rows")
	}
	return &BenchFile{Entries: []BenchEntry{{
		Label:      "pre-kernel",
		GoMaxProcs: legacy.GoMaxProcs,
		Reps:       legacy.Reps,
		Rows:       legacy.Rows,
	}}}, nil
}

// LoadBenchFile reads and decodes a BENCH_generate.json file.
func LoadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBenchFile(data)
}

// Upsert replaces the entry with e's label, or appends e when no entry
// carries it — re-running a measurement campaign refreshes its entry
// instead of stacking duplicates.
func (f *BenchFile) Upsert(e BenchEntry) {
	for k := range f.Entries {
		if f.Entries[k].Label == e.Label {
			f.Entries[k] = e
			return
		}
	}
	f.Entries = append(f.Entries, e)
}

// Entry returns the entry with the given label, or nil.
func (f *BenchFile) Entry(label string) *BenchEntry {
	for k := range f.Entries {
		if f.Entries[k].Label == label {
			return &f.Entries[k]
		}
	}
	return nil
}

// FormatBenchKernel renders the kernel-vs-scalar columns of a bench entry
// as a markdown table (empty string when the entry is nil or carries no
// kernel measurements).
func FormatBenchKernel(e *BenchEntry) string {
	if e == nil {
		return ""
	}
	any := false
	for _, r := range e.Rows {
		if r.KernelEvalNS > 0 {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	b.WriteString("| fault list | kn | scalar eval | kernel eval | speedup | allocs/op (scalar → kernel) |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range e.Rows {
		if r.KernelEvalNS <= 0 {
			continue
		}
		fmt.Fprintf(&b, "| %s | %dn | %s | %s | %.1f× | %d → %d |\n",
			r.Faults, r.Complexity,
			formatNS(r.ScalarEvalNS), formatNS(r.KernelEvalNS),
			r.SpeedupKernel, r.ScalarAllocsPerOp, r.KernelAllocsPerOp)
	}
	return b.String()
}

// formatNS renders a nanosecond count with a readable unit.
func formatNS(ns int64) string {
	switch {
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2f ms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1f µs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%d ns", ns)
	}
}
