package bench

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Workloads names every workload, in the order the "all" run uses.
var Workloads = []string{"table3-cold", "simple-lists-cold", "serve-mix"}

// SingleCellModels are the single-cell fault models whose one- and
// two-model lists form the simple-lists-cold workload.
var SingleCellModels = []string{"SAF", "TF", "WDF", "RDF", "DRDF", "IRF", "SOF"}

// GoldenPath is the paper's Table 3 reference file, relative to the
// repository root.
const GoldenPath = "testdata/table3.golden"

// Golden is one row of the Table 3 golden file.
type Golden struct {
	Faults     string
	Complexity int
	Test       string
}

// ReadGolden parses the golden file under root: one
// "<faults> | <complexity>n | <march test>" row per line, # comments.
func ReadGolden(root string) ([]Golden, error) {
	f, err := os.Open(filepath.Join(root, GoldenPath))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []Golden
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, " | ")
		if len(parts) != 3 {
			return nil, fmt.Errorf("%s: malformed row %q", GoldenPath, line)
		}
		k, err := strconv.Atoi(strings.TrimSuffix(parts[1], "n"))
		if err != nil {
			return nil, fmt.Errorf("%s: bad complexity in %q", GoldenPath, line)
		}
		rows = append(rows, Golden{Faults: parts[0], Complexity: k, Test: parts[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", GoldenPath)
	}
	return rows, nil
}

// SimpleLists returns all one- and two-model lists over SingleCellModels.
func SimpleLists() []string {
	var out []string
	for i, a := range SingleCellModels {
		out = append(out, a)
		for _, b := range SingleCellModels[i+1:] {
			out = append(out, a+","+b)
		}
	}
	return out
}

// Shuffled returns the lists in the order the seed selects.
func Shuffled(lists []string, seed int64) []string {
	out := make([]string, len(lists))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(lists)) {
		out[i] = lists[j]
	}
	return out
}

// VerifyShare is the share of serve-mix requests that are verifies.
const VerifyShare = 0.2

// Request is one element of a serve request stream.
type Request struct {
	Verify bool   // POST /v1/verify of MarchC-; otherwise POST /v1/generate
	List   string // fault list
}

// Stream is a seeded, unbounded request stream: element i depends only
// on the seed and i, so every run with a seed issues the same sequence
// however many requests it gets through.
type Stream struct {
	Seed        int64
	Generate    []string // lists for generate requests
	Verify      []string // lists for verify requests (none: generate only)
	VerifyShare float64
}

// At returns the i-th request of the stream.
func (s Stream) At(i int) Request {
	h := splitmix(uint64(s.Seed)*0x9e3779b97f4a7c15 ^ uint64(i))
	if len(s.Verify) > 0 && float64(h>>11)/(1<<53) < s.VerifyShare {
		return Request{Verify: true, List: s.Verify[splitmix(h)%uint64(len(s.Verify))]}
	}
	return Request{List: s.Generate[splitmix(h)%uint64(len(s.Generate))]}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
