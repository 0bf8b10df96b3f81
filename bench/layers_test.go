package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFoldTopFixture(t *testing.T) {
	top, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldTop(string(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		// cpu, dram, ring and emc NextEvent, System.horizon and its
		// closure, sliceNext: 0.6+0.2+0.1+0.1+0.3+0.1+0.1 of 10s.
		"host.horizon":  0.15,
		"host.cpu":      0.33,
		"host.emc":      0.12,
		"host.sim":      0.09,
		"host.dram":     0.07,
		"host.cache":    0.04,
		"host.tracegen": 0.03,
		"host.ring":     0.02,
		"host.runtime":  0.08, // mallocgc, swiss-map lookup, sync.Mutex
		"host.prefetch": 0.01,
		"host.service":  0.01,
		"host.cluster":  0.01,
		"host.figures":  0.01,
		// fmt, a generic whose type arguments name a sim type, vm.
		"host.other": 0.03,
	}
	sum := 0.0
	for _, l := range hostLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s = %.4f, want %.4f", l, shares[l], want[l])
		}
	}
	if len(shares) != len(hostLayers) {
		t.Errorf("folded into %d layers, want %d: %v", len(shares), len(hostLayers), shares)
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %.4f, want 1±0.01", sum)
	}
}

func TestFoldTopRejects(t *testing.T) {
	for name, top := range map[string]string{
		"no samples": "      flat  flat%   sum%        cum   cum%\n",
		"bad unit":   "      flat  flat%   sum%        cum   cum%\n  3furlongs 100% 100% 3s 100%  main.f\n",
	} {
		if _, err := foldTop(top); err == nil {
			t.Errorf("%s: foldTop accepted %q", name, top)
		}
	}
}

var spinSink uint64

// TestHostSharesProfile folds a real CPU profile through go tool pprof.
func TestHostSharesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	spinSink = x
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := hostShares([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %.4f, want 1±0.01", sum)
	}
	if shares["host.other"] < 0.5 {
		t.Errorf("host.other = %.2f for a profile of a test spin loop, want most of it", shares["host.other"])
	}
}
