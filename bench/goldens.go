package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
)

// goldenJSON pins every checked output: report-text hashes, WCET table
// hashes, and the exact counts a simulator-speed change must not move.
// Values are strings: hashes in hex, counts in Go's shortest float form.
//
//go:embed testdata/goldens.json
var goldenJSON []byte

// goldenPath is where -update-goldens writes, relative to the repository
// root (bench/run.sh runs the benchmark from there).
const goldenPath = "bench/testdata/goldens.json"

// checker collects the run's output checks. A failed check never stops the
// run; it makes the result incorrect.
type checker struct {
	mu     sync.Mutex
	want   map[string]string
	record bool              // -update-goldens: store values instead of comparing
	got    map[string]string // recorded values
	bad    []string
}

// loadGoldens parses the embedded goldens.
func loadGoldens(record bool) (*checker, error) {
	want := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	return &checker{want: want, record: record, got: map[string]string{}}, nil
}

// golden compares value with the golden pinned under key.
func (c *checker) golden(key, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.record {
		c.got[key] = value
		return
	}
	w, ok := c.want[key]
	switch {
	case !ok:
		c.bad = append(c.bad, fmt.Sprintf("%s: no golden pinned (got %s)", key, value))
	case w != value:
		c.bad = append(c.bad, fmt.Sprintf("%s: got %s, golden %s", key, value, w))
	}
}

// goldenCount pins an exact count.
func (c *checker) goldenCount(key string, v float64) {
	c.golden(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// fail records a failed check that has no golden (an output that differs
// from an independent recomputation or from an earlier repetition).
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.bad = append(c.bad, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *checker) mismatches() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.bad...)
}

// save merges the recorded values into the golden file.
func (c *checker) save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	merged := make(map[string]string, len(c.want)+len(c.got))
	for k, v := range c.want {
		merged[k] = v
	}
	for k, v := range c.got {
		merged[k] = v
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %d goldens written to %s (%d recorded this run)\n", len(merged), goldenPath, len(c.got))
	return nil
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
