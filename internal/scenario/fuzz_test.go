package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the strict spec decoder the serving
// layer runs on every request body. Invariants: Parse never panics, and a
// spec it accepts re-marshals to JSON that parses back to a deep-equal
// Spec. The seed corpus is every committed spec.
func FuzzParse(f *testing.F) {
	root := filepath.Join("..", "..", "scenarios")
	for _, dir := range []string{root, filepath.Join(root, "paper"), filepath.Join(root, "knowledge"), filepath.Join(root, "huge")} {
		paths, err := Files(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-marshal of an accepted spec: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed the spec:\n%#v\n%#v", s, again)
		}
	})
}
