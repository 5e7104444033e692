package main

// Smoke tests for the corpus validator: malformed specs must fail with every
// problem reported, good corpora (including the committed one) must pass.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSpecs(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestValidateMalformedCorpus(t *testing.T) {
	tests := []struct {
		name    string
		files   map[string]string
		wantErr []string // substrings expected on stderr
	}{
		{
			name:    "syntax error",
			files:   map[string]string{"bad.json": `{"name": "x",`},
			wantErr: []string{"bad.json"},
		},
		{
			name: "unknown field",
			files: map[string]string{
				"typo.json": `{"name":"typo","graph":{"family":"cycle","n":64},"algorithm":{"name":"luby-mis"},"repeats":3}`,
			},
			wantErr: []string{"typo.json", "repeats"},
		},
		{
			name: "unknown algorithm",
			files: map[string]string{
				"algo.json": `{"name":"algo","graph":{"family":"cycle","n":64},"algorithm":{"name":"nope"}}`,
			},
			wantErr: []string{`unknown algorithm "nope"`},
		},
		{
			name: "duplicate names across files",
			files: map[string]string{
				"a.json": `{"name":"same","graph":{"family":"cycle","n":64},"algorithm":{"name":"luby-mis"}}`,
				"b.json": `{"name":"same","graph":{"family":"cycle","n":64},"algorithm":{"name":"luby-mis"}}`,
			},
			wantErr: []string{`scenario name "same" already used`},
		},
		{
			name: "all problems reported, not just the first",
			files: map[string]string{
				"one.json": `{"name":"one","graph":{"family":"cycle","n":64},"algorithm":{"name":"nope"}}`,
				"two.json": `{"name":"TWO","graph":{"family":"cycle","n":64},"algorithm":{"name":"luby-mis"}}`,
			},
			wantErr: []string{`unknown algorithm "nope"`, "kebab-case"},
		},
		{
			name:    "empty directory",
			files:   map[string]string{},
			wantErr: []string{"no *.json files"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeSpecs(t, tc.files)
			var stdout, stderr strings.Builder
			if validate(dir, &stdout, &stderr) {
				t.Fatalf("validate accepted a malformed corpus\nstdout: %s", stdout.String())
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

func TestValidateGoodCorpus(t *testing.T) {
	dir := writeSpecs(t, map[string]string{
		"ok.json": `{"name":"ok","graph":{"family":"cycle","n":64},"algorithm":{"name":"luby-mis"},"seeds":[1,2]}`,
	})
	var stdout, stderr strings.Builder
	if !validate(dir, &stdout, &stderr) {
		t.Fatalf("validate rejected a good corpus:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "validated 1 files, 1 scenarios, 2 jobs") {
		t.Fatalf("unexpected summary:\n%s", stdout.String())
	}
}

// TestValidateCommittedCorpus keeps the committed scenarios/ and
// scenarios/paper directories loadable by the exact code path CI's scenario
// gate runs.
func TestValidateCommittedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("expands every committed scenario graph")
	}
	for _, dir := range []string{filepath.Join("..", "..", "scenarios"), filepath.Join("..", "..", "scenarios", "paper")} {
		var stdout, stderr strings.Builder
		if !validate(dir, &stdout, &stderr) {
			t.Fatalf("committed corpus %s failed validation:\n%s", dir, stderr.String())
		}
	}
}
