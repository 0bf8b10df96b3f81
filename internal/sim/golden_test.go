package sim

import (
	"fmt"
	"testing"
)

// goldenWorkloads are short configurations whose Result hashes are pinned
// across commits. Each class stresses a different part of the model: the
// store-heavy 4x lbm stream (core issue and load/store ordering), 4x mcf with
// the EMC (chain generation, shipping, aborts), the heterogeneous mix with the
// EMC and GHB, 4x omnetpp with the EMC, runahead with the stream prefetcher,
// and the Fig. 12 H8 mix with and without the EMC.
var goldenWorkloads = []struct {
	name       string
	benchmarks []string
	tweak      func(*Config)
	seeds      []uint64
}{
	{"lbm-x4-stream", []string{"lbm", "lbm", "lbm", "lbm"},
		func(c *Config) { c.Prefetcher = PFStream }, []uint64{1, 2, 3}},
	{"lbm-x4", []string{"lbm", "lbm", "lbm", "lbm"}, nil, []uint64{1, 2}},
	{"lbm-x4-emc-stream", []string{"lbm", "lbm", "lbm", "lbm"},
		func(c *Config) {
			c.EMCEnabled = true
			c.Prefetcher = PFStream
		}, []uint64{1, 2}},
	{"mcf-x4-emc", []string{"mcf", "mcf", "mcf", "mcf"},
		func(c *Config) { c.EMCEnabled = true }, []uint64{1, 2, 3}},
	{"mcf-x4", []string{"mcf", "mcf", "mcf", "mcf"}, nil, []uint64{1, 2}},
	{"hmix-emc-ghb", []string{"mcf", "lbm", "milc", "omnetpp"},
		func(c *Config) {
			c.EMCEnabled = true
			c.Prefetcher = PFGHB
		}, []uint64{1, 2, 3}},
	{"hmix-runahead-stream", []string{"omnetpp", "milc", "soplex", "libquantum"},
		func(c *Config) {
			c.RunaheadEnabled = true
			c.Prefetcher = PFStream
		}, []uint64{1, 2, 3}},
	{"lbm-x4-runahead-stream", []string{"lbm", "lbm", "lbm", "lbm"},
		func(c *Config) {
			c.RunaheadEnabled = true
			c.Prefetcher = PFStream
		}, []uint64{1, 2}},
	{"h8-emc", []string{"omnetpp", "soplex", "mcf", "bwaves"},
		func(c *Config) { c.EMCEnabled = true }, []uint64{1, 2}},
	{"omnetpp-x4-emc", []string{"omnetpp", "omnetpp", "omnetpp", "omnetpp"},
		func(c *Config) { c.EMCEnabled = true }, []uint64{1, 2}},
	{"h8-emc-stream", []string{"omnetpp", "soplex", "mcf", "bwaves"},
		func(c *Config) {
			c.EMCEnabled = true
			c.Prefetcher = PFStream
		}, []uint64{1, 2}},
	{"h8-stream", []string{"omnetpp", "soplex", "mcf", "bwaves"},
		func(c *Config) { c.Prefetcher = PFStream }, []uint64{1, 2}},
}

// goldenHashes holds Result.Hash for every goldenWorkloads entry, keyed
// "<name>/seed<N>". A change that is meant to be bit-exact (a performance
// rewrite, a refactor) must leave every value untouched; a change that
// deliberately alters simulation outcomes regenerates the table from the
// failure messages and says why in its description.
var goldenHashes = map[string]uint64{
	"h8-emc-stream/seed1":          0xa192346e4be42e45,
	"h8-emc-stream/seed2":          0xcef56552d17fcca6,
	"h8-emc/seed1":                 0x40cec94574107aac,
	"h8-emc/seed2":                 0x980f3b4faa14ad58,
	"h8-stream/seed1":              0x6630fc79ed33712d,
	"h8-stream/seed2":              0xcb83facda1eca5c2,
	"hmix-emc-ghb/seed1":           0x46f3d120c77b5bd5,
	"hmix-emc-ghb/seed2":           0x5a6a79a814c71196,
	"hmix-emc-ghb/seed3":           0xe559ec239c2552a6,
	"hmix-runahead-stream/seed1":   0x537a206c3a02aade,
	"hmix-runahead-stream/seed2":   0xc1924ebdedb7d379,
	"hmix-runahead-stream/seed3":   0x7e288328dcc65a3,
	"lbm-x4-emc-stream/seed1":      0x3ad5af7e0854059b,
	"lbm-x4-emc-stream/seed2":      0xb45d4d3c222199f,
	"lbm-x4-runahead-stream/seed1": 0x93697dd043774a70,
	"lbm-x4-runahead-stream/seed2": 0x737e089dfa20f632,
	"lbm-x4-stream/seed1":          0x7903ce465c2e1de4,
	"lbm-x4-stream/seed2":          0x2bc3d758fdc1d03a,
	"lbm-x4-stream/seed3":          0x433156096f78646d,
	"lbm-x4/seed1":                 0x66141df42fca27c0,
	"lbm-x4/seed2":                 0xf2ef46ddfffca851,
	"mcf-x4-emc/seed1":             0xdc01665d26ef6ed6,
	"mcf-x4-emc/seed2":             0x48a39f98d2d7dbcc,
	"mcf-x4-emc/seed3":             0xec5ca38963149012,
	"mcf-x4/seed1":                 0x74a8b593bb58a525,
	"mcf-x4/seed2":                 0x65ad4f1662c43e59,
	"omnetpp-x4-emc/seed1":         0xbb344f59bc1c2238,
	"omnetpp-x4-emc/seed2":         0x2be2865367fc9301,
}

// TestGoldenHashes pins simulation outcomes across commits: every golden
// configuration, run at 3000 instructions per core, must reproduce its
// recorded Result hash exactly.
func TestGoldenHashes(t *testing.T) {
	n := 0
	for _, w := range goldenWorkloads {
		for _, seed := range w.seeds {
			w, seed := w, seed
			key := fmt.Sprintf("%s/seed%d", w.name, seed)
			n++
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				cfg := skipCfg(w.benchmarks, seed)
				if w.tweak != nil {
					w.tweak(&cfg)
				}
				got, _, _ := runHashed(t, cfg)
				want, ok := goldenHashes[key]
				if !ok {
					t.Fatalf("no golden hash; want line:\n\t%q: %#x,", key, got)
				}
				if got != want {
					t.Fatalf("Result hash %#x, golden %#x; regenerated line:\n\t%q: %#x,",
						got, want, key, got)
				}
			})
		}
	}
	if n != len(goldenHashes) {
		t.Errorf("%d golden configurations but %d recorded hashes", n, len(goldenHashes))
	}
}
