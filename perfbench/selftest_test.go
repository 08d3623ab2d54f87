package main

import (
	"testing"
	"time"

	"repro/internal/disk"
)

// damage flips every byte of the second and third megabyte of the disk,
// which hold data of each reduced workload below.
func damage(d *disk.Disk) { d.CorruptRange(1<<20, 2<<20, 0x5a) }

// TestChecksCatchDamage runs each workload at reduced size, first on an
// intact disk, which must pass with no failed operation, then over a disk
// damaged with disk.CorruptRange, which must not pass.
func TestChecksCatchDamage(t *testing.T) {
	cfg := runConfig{seed: 7, seconds: time.Second}
	hc := hotColdConfig{capacity: 8 << 20, blocks: 1000, setups: 1}
	nc := netldConfig{capacity: 16 << 20, lists: 8, perList: 32, setups: 1}
	pc := paperConfig{partition: 16 << 20, files: 200, largeFile: 4 << 20, cache: 256 << 10}
	runs := map[string]func(damage func(*disk.Disk)) (*report, error){
		"ld-hotcold": func(d func(*disk.Disk)) (*report, error) {
			c := hc
			c.damage = d
			return hotCold(cfg, c)
		},
		"netld-readmostly": func(d func(*disk.Disk)) (*report, error) {
			c := nc
			c.damage = d
			return netLD(cfg, c)
		},
		"paper-minix": func(d func(*disk.Disk)) (*report, error) {
			c := pc
			c.damage = d
			return paper(cfg, c)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			rep, err := run(nil)
			if err != nil {
				t.Fatalf("intact disk: %v", err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("intact disk: %d of %d operations failed: %v", rep.failed, rep.attempted, rep.errs)
			}
			rep, err = run(damage)
			if err == nil && rep.failed == 0 {
				t.Fatalf("damaged disk passed: %d operations, none failed", rep.attempted)
			}
			if err == nil {
				t.Logf("damaged disk: %d of %d operations failed, first: %s", rep.failed, rep.attempted, rep.errs[0])
			} else {
				t.Logf("damaged disk: run refused: %v", err)
			}
		})
	}
}

func TestCheckPayload(t *testing.T) {
	p := make([]byte, 4096)
	fillPayload(p, 12, 3, 99)
	if err := checkPayload(p, 12, 3, 99); err != nil {
		t.Fatalf("intact payload: %v", err)
	}
	for name, c := range map[string]struct {
		key, version, seed uint64
	}{
		"stale version": {12, 2, 99},
		"other block":   {13, 3, 99},
		"other seed":    {12, 3, 98},
	} {
		if checkPayload(p, c.key, c.version, c.seed) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	p[2000] ^= 1
	if checkPayload(p, 12, 3, 99) == nil {
		t.Error("flipped bit: accepted")
	}
}
