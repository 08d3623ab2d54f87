package main

import (
	"math"
	"runtime/debug"
	"strconv"
	"testing"

	"repro/internal/harness"
)

// TestPaperMatchesHarnessTables keeps the paper-minix workload from drifting
// away from the paper tables: one repetition with the tables' seed must
// give harness.Table4's MINIX LLD 1-KB cells and harness.Table5's MINIX LLD
// row at Scale 1 within 2%.
func TestPaperMatchesHarnessTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper's full-scale tables")
	}
	// The tables build a 400-MB disk per file system and size; a memory
	// limit makes the collector free each one before the next is built.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	rep := newReport()
	r, err := paperOnce(42, paperDefault, nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d failed checks: %v", rep.failed, rep.errs)
	}
	files := float64(paperDefault.files)
	kb := func(phase string) float64 { return kbPerSec(paperDefault.largeFile, r.vclock[phase]) }
	got4 := []float64{
		files / r.vclock["create"].Seconds(),
		files / r.vclock["read"].Seconds(),
		files / r.vclock["delete"].Seconds(),
	}
	got5 := []float64{kb("seq_write"), kb("seq_read"), kb("rand_write"), kb("rand_read"), kb("reread")}

	t4, err := harness.Table4(harness.Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	t5, err := harness.Table5(harness.Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	compare(t, t4, got4)
	compare(t, t5, got5)
}

// compare checks got against the leading cells of the table's MINIX LLD row.
func compare(t *testing.T, tab *harness.Table, got []float64) {
	t.Helper()
	for _, row := range tab.Rows {
		if row[0] != "MINIX LLD" {
			continue
		}
		for i, g := range got {
			want, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil {
				t.Fatalf("%s %s: %v", tab.ID, tab.Header[i+1], err)
			}
			if math.Abs(g-want) > 0.02*want {
				t.Errorf("%s %s: benchmark %.1f, table %.0f (more than 2%% apart)", tab.ID, tab.Header[i+1], g, want)
			}
		}
		return
	}
	t.Fatalf("%s has no MINIX LLD row", tab.ID)
}
