package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json holds the exact counters of every batch-workload job for
// --seed 0 to 21, keyed by job label (which names the spec, algorithm and
// effective seed). It is written by
// `go test -run TestGolden -update` through serve.Execute, the path
// `localbench -scenarios` prints from.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]counters, error) {
	var g map[string]counters
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}
