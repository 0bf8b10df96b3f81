package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem/dram"
	"repro/internal/obs"
)

func testCfg(t *testing.T) Config {
	t.Helper()
	return Default([]string{"mcf", "sphinx3", "soplex", "libquantum"})
}

func fp(t *testing.T, cfg Config) string {
	t.Helper()
	return cfg.Fingerprint()
}

func TestFingerprintStable(t *testing.T) {
	a := fp(t, testCfg(t))
	b := fp(t, testCfg(t))
	if a != b {
		t.Fatalf("identical configs hash differently: %s vs %s", a, b)
	}
	if !strings.HasPrefix(a, "emcfp1-") {
		t.Fatalf("fingerprint %q lacks version prefix", a)
	}
}

// TestFingerprintJSONRoundTrip pins the satellite requirement: a config that
// travels through JSON (the HTTP submit path) must keep its fingerprint.
func TestFingerprintJSONRoundTrip(t *testing.T) {
	cfg := testCfg(t)
	cfg.Prefetcher = PFGHB
	cfg.EMCEnabled = true
	want := fp(t, cfg)

	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := fp(t, back); got != want {
		t.Fatalf("JSON round-trip changed fingerprint: %s -> %s", want, got)
	}
}

// TestFingerprintFieldOrderIndependent proves the canonical encoder ignores
// struct declaration order: two types with the same fields in different
// source order encode identically.
func TestFingerprintFieldOrderIndependent(t *testing.T) {
	type ab struct {
		Alpha int
		Beta  string
	}
	type ba struct {
		Beta  string
		Alpha int
	}
	var b1, b2 strings.Builder
	canonValue(&b1, reflect.ValueOf(ab{Alpha: 7, Beta: "x"}))
	canonValue(&b2, reflect.ValueOf(ba{Beta: "x", Alpha: 7}))
	if b1.String() != b2.String() {
		t.Fatalf("field order leaked into encoding: %q vs %q", b1.String(), b2.String())
	}
}

// TestFingerprintSemanticChanges mutates every result-affecting field and
// asserts the hash moves; a completeness check makes sure a newly added
// Config field cannot dodge the fingerprint policy unnoticed.
func TestFingerprintSemanticChanges(t *testing.T) {
	base := fp(t, testCfg(t))
	mutations := map[string]func(*Config){
		"Benchmarks":         func(c *Config) { c.Benchmarks = []string{"mcf", "mcf", "mcf", "mcf"} },
		"InstrPerCore":       func(c *Config) { c.InstrPerCore++ },
		"Seed":               func(c *Config) { c.Seed++ },
		"Prefetcher":         func(c *Config) { c.Prefetcher = PFGHB },
		"EMCEnabled":         func(c *Config) { c.EMCEnabled = true },
		"RunaheadEnabled":    func(c *Config) { c.RunaheadEnabled = true },
		"UseBranchPredictor": func(c *Config) { c.UseBranchPredictor = true },
		"MCs":                func(c *Config) { c.MCs = 2 },
		"Geometry":           func(c *Config) { c.Geometry.Channels *= 2 },
		"Timing":             func(c *Config) { c.Timing.TCAS++ },
		"Sched":              func(c *Config) { c.Sched = dram.SchedFCFS },
		"LLCSliceBytes":      func(c *Config) { c.LLCSliceBytes *= 2 },
		"LLCLatency":         func(c *Config) { c.LLCLatency++ },
		"LLCFillLatency":     func(c *Config) { c.LLCFillLatency++ },
		"PageShift":          func(c *Config) { c.PageShift-- },
		"IdealDependentHits": func(c *Config) { c.IdealDependentHits = true },
		"MagicChains":        func(c *Config) { c.MagicChains = true },
		"MaxCycles":          func(c *Config) { c.MaxCycles++ },
		"EMCCfg":             func(c *Config) { c.EMCCfg.Contexts++ },
	}
	seen := map[string]string{"": base}
	for name, mutate := range mutations {
		cfg := testCfg(t)
		mutate(&cfg)
		h := fp(t, cfg)
		if h == base {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutations %q and %q collide on %s", name, prev, h)
		}
		seen[h] = name
	}

	// Every Config field must be either mutated above or deliberately
	// excluded — growing Config silently would otherwise poison the cache.
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := mutations[name]; ok {
			continue
		}
		if fingerprintExcluded[name] {
			continue
		}
		t.Errorf("Config field %s is neither fingerprinted (add a mutation) nor excluded", name)
	}
}

// TestFingerprintIgnoresObservability: observability knobs never change
// simulation outcomes, so they must not change the cache identity either.
func TestFingerprintIgnoresObservability(t *testing.T) {
	base := fp(t, testCfg(t))
	cfg := testCfg(t)
	cfg.Obs = obs.Config{Enabled: true, SampleEvery: 8, Retain: true}
	cfg.CounterInterval = 5000
	cfg.DisableCycleSkip = true
	cfg.Metrics = obs.NewRegistry()
	cfg.MetricsLabels = map[string]string{"run": "x"}
	if got := fp(t, cfg); got != base {
		t.Fatalf("observability fields changed the fingerprint: %s -> %s", base, got)
	}
}

// TestFingerprintGolden pins two fingerprints as the durable result caches
// hold them: a change to the canonical encoding must bump
// fingerprintVersion, or records written before it stop hitting.
func TestFingerprintGolden(t *testing.T) {
	cfg := Default([]string{"mcf", "mcf", "mcf", "mcf"})
	if got, want := fp(t, cfg), "emcfp1-ebd671cb74d92486a987a69610c54525"; got != want {
		t.Errorf("4xmcf fingerprint = %s, want %s", got, want)
	}
	cfg.EMCEnabled = true
	if got, want := fp(t, cfg), "emcfp1-8db09e9c5a3e9aa83496db93499dd55f"; got != want {
		t.Errorf("4xmcf+EMC fingerprint = %s, want %s", got, want)
	}
}

// TestConfigIsPureData: Config is plain data — no function, channel, unsafe
// pointer or interface anywhere in the type of a fingerprinted field,
// through structs, slices, arrays, maps and pointers. Such a value has no
// canonical identity, so canonValue would panic on it. A field excluded from
// the fingerprint is not encoded, so only its own kind is checked (Metrics
// is a *obs.Registry); a hook that observes or steers a run belongs on the
// System or the service, never on Config.
func TestConfigIsPureData(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type, deep bool)
	walk = func(path string, typ reflect.Type, deep bool) {
		switch typ.Kind() {
		case reflect.Func, reflect.Chan, reflect.UnsafePointer, reflect.Interface:
			t.Errorf("Config.%s is %s, which has no canonical identity", path, typ)
			return
		}
		if !deep || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type, true)
			}
		case reflect.Map:
			walk(path+"[key]", typ.Key(), true)
			walk(path+"[]", typ.Elem(), true)
		case reflect.Slice, reflect.Array, reflect.Pointer:
			walk(path+"[]", typ.Elem(), true)
		}
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		walk(f.Name, f.Type, !fingerprintExcluded[f.Name])
	}
}
