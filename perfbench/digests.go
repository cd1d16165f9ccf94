package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// digestBook holds the expected SHA-256 digest of every checked output,
// keyed by the input that produced it. Keys carry the cycle count, so
// digests recorded at one size never vouch for another.
type digestBook struct {
	// Explore maps "<cycles>/<traffic seed>" to per-report digests keyed
	// "<index>:<report id>" and "<index>:<report id>/chart<k>".
	Explore map[string]map[string]string `json:"explore"`
	// Serve maps "<cycles>" to the digests of the sweep entries' artifacts
	// as served, indexed by entry.
	Serve map[string][]string `json:"serve"`
}

func newDigestBook() *digestBook {
	return &digestBook{Explore: map[string]map[string]string{}, Serve: map[string][]string{}}
}

func parseDigests(b []byte) (*digestBook, error) {
	d := newDigestBook()
	if err := json.Unmarshal(b, d); err != nil {
		return nil, fmt.Errorf("recorded digests: %w", err)
	}
	return d, nil
}

func sha(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sizeKey(cycles int64, input int) string { return fmt.Sprintf("%d/%d", cycles, input) }

// serveDigest is the recorded digest of sweep entry e, or "" if none is
// recorded at the current size.
func (b *bench) serveDigest(e int) string {
	ds := b.expect.Serve[fmt.Sprint(b.sizes.ServeCycles)]
	if e < 0 || e >= len(ds) {
		return ""
	}
	return ds[e]
}

// recordDigests recomputes every recorded output at b's sizes and writes
// the book to path.
func recordDigests(b *bench, path string) error {
	start := now()
	book, err := computeDigests(b)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(book, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded digests in %s\n", now().Sub(start).Round(time.Millisecond))
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// computeDigests produces every recorded output at b's sizes through the
// same code paths the measured operations take, and digests it.
func computeDigests(b *bench) (*digestBook, error) {
	book := newDigestBook()
	b.expect = book
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return nil, err
	}
	for k := 0; k < b.sizes.ExploreSeeds; k++ {
		w := &exploreWL{b: b}
		w.opts = w.options(int64(k))
		d, err := w.digests()
		if err != nil {
			return nil, err
		}
		book.Explore[sizeKey(w.opts.Cycles, int(w.opts.Seed))] = d
	}
	serve, err := recordServe(b)
	if err != nil {
		return nil, err
	}
	book.Serve[fmt.Sprint(b.sizes.ServeCycles)] = serve
	return book, nil
}
