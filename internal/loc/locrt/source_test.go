package locrt

import (
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSourceEmbedsEveryRuntimeFile keeps the embedded runtime complete: a
// file added to this package but left out of Source would be missing from
// every generated checker.
func TestSourceEmbedsEveryRuntimeFile(t *testing.T) {
	var want []string
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f != "source.go" && !strings.HasSuffix(f, "_test.go") {
			want = append(want, f)
		}
	}
	var got []string
	entries, err := fs.ReadDir(Source, ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Source embeds %v, want %v", got, want)
	}
}
