package service

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// runTiny runs cfg directly and returns its Result (the ground truth the
// durable round trips are compared against).
func runTiny(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDurableRecordRoundTrip: a real Result frames, decodes, and hashes
// bit-identically — the lossless-persistence guarantee the durable cache
// rests on (including histogram-bearing stats).
func TestDurableRecordRoundTrip(t *testing.T) {
	res := runTiny(t, tinyCfg(7))
	const key = "emcfp1-test+obs:8,true"
	frame, err := EncodeRecord(key, res)
	if err != nil {
		t.Fatal(err)
	}
	backKey, back, err := DecodeRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	if backKey != key {
		t.Fatalf("key changed: %q -> %q", key, backKey)
	}
	if back.Hash() != res.Hash() {
		t.Fatalf("round trip changed the result: %#x != %#x", back.Hash(), res.Hash())
	}
}

// TestDecodeDurableCorruption: every corruption mode maps to
// ErrRecordCorrupt (which is what load keys quarantine on).
func TestDecodeDurableCorruption(t *testing.T) {
	good, err := EncodeRecord("k", &sim.Result{Cycles: 9})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"garbage":   []byte("not a record at all"),
		"bad magic": append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-5],
		"payload flip": append(append([]byte{}, good[:12]...),
			append([]byte{good[12] ^ 0xFF}, good[13:]...)...),
		"crc flip": append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^0xFF),
		"bad version": func() []byte {
			b := append([]byte{}, good...)
			b[4] ^= 0xFF
			return b
		}(),
	}
	for name, data := range cases {
		if _, _, err := DecodeRecord(data); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		}
	}
	if _, _, err := DecodeRecord(good); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
}

// TestDurableFileNameSafety: names stay inside the directory and distinct
// keys get distinct files even when sanitization folds their punctuation.
func TestDurableFileNameSafety(t *testing.T) {
	keys := []string{
		"emcfp1-abc123+obs:8,true+ci:1000",
		"emcfp1-abc123+obs:8;true+ci:1000", // folds to the same sanitized form
		"../../../etc/passwd",
		"key:with:colons",
	}
	seen := map[string]bool{}
	for _, k := range keys {
		name := durableFileName(k)
		// '/' must never survive (".." inside one component is harmless).
		if strings.ContainsAny(name, "/:") {
			t.Errorf("unsafe file name %q for key %q", name, k)
		}
		if seen[name] {
			t.Errorf("file name collision for key %q: %q", k, name)
		}
		seen[name] = true
	}
}

// TestDurableRestartReload is the crash-recovery contract: results computed
// before a restart are served from the durable cache after it, bit-identical
// and without re-simulation.
func TestDurableRestartReload(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyCfg(21)
	want := runTiny(t, cfg).Hash()

	s1, err := Open(Config{Workers: 1, QueueCap: 8, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(context.Background(), "t", cfg); err != nil {
		t.Fatal(err)
	}
	s1.FlushDurable()
	if st := s1.Stats(); st.CachePersisted != 1 {
		t.Fatalf("want 1 persisted record, stats: %+v", st)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh service over the same directory.
	s2, err := Open(Config{Workers: 1, QueueCap: 8, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.CacheLoaded != 1 || st.CacheEntries != 1 {
		t.Fatalf("reload failed, stats: %+v", st)
	}
	j, err := s2.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j.Status().Cached {
		t.Fatal("resubmit after restart should be a cache hit")
	}
	if res.Hash() != want {
		t.Fatalf("reloaded result hash %#x != original %#x", res.Hash(), want)
	}
}

// TestMetricsGaugesReadAtScrape: /metrics reads the service gauges when it
// is scraped, so a counter the durable persister bumps after the job
// finished still agrees with Stats.
func TestMetricsGaugesReadAtScrape(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(Config{Workers: 1, QueueCap: 8, CacheDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(context.Background(), "t", tinyCfg(23)); err != nil {
		t.Fatal(err)
	}
	s.FlushDurable()
	srv := httptest.NewServer(NewHandler(s, reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	persisted := s.Stats().CachePersisted
	if persisted != 1 {
		t.Fatalf("Stats().CachePersisted = %d, want 1", persisted)
	}
	want := fmt.Sprintf(`emcsim_service_cache_persisted{component="service"} %d`, persisted)
	if !strings.Contains(string(body), want+"\n") {
		t.Fatalf("/metrics disagrees with Stats, want %q:\n%s", want, body)
	}
}

// TestDurableQuarantine: corrupt records on disk are moved aside, counted,
// and never served; intact records in the same directory still load.
func TestDurableQuarantine(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyCfg(22)

	s1, err := Open(Config{Workers: 1, QueueCap: 8, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(context.Background(), "t", cfg); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Corrupt the directory three ways: garbage, a truncated copy of the
	// real record, and a bit flip inside a real frame.
	names, err := filepath.Glob(filepath.Join(dir, "*"+durableExt))
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one record, got %v (%v)", names, err)
	}
	frame, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	writeFile := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("garbage"+durableExt, []byte("zzzz"))
	writeFile("truncated"+durableExt, frame[:len(frame)/2])
	flipped := append([]byte{}, frame...)
	flipped[len(flipped)/2] ^= 0xFF
	writeFile("flipped"+durableExt, flipped)

	s2, err := Open(Config{Workers: 1, QueueCap: 8, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.CacheLoaded != 1 || st.CacheQuarantined != 3 {
		t.Fatalf("want 1 loaded + 3 quarantined, stats: %+v", st)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*"+corruptExt))
	if len(quarantined) != 3 {
		t.Fatalf("want 3 *.corrupt files, got %v", quarantined)
	}
	// The intact record still serves.
	j, err := s2.Submit("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil || !j.Status().Cached {
		t.Fatalf("intact record not served from cache (err=%v cached=%v)", err, j.Status().Cached)
	}
}

// TestDurableEvictionDeletes: an entry evicted from the LRU loses its disk
// record too, so the directory tracks the cache instead of growing forever.
func TestDurableEvictionDeletes(t *testing.T) {
	dir := t.TempDir()
	store, err := openDurableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := newResultCache(1, store)
	c.put("a", &sim.Result{Cycles: 1})
	c.put("b", &sim.Result{Cycles: 2}) // evicts a
	store.flush()
	store.close()
	if _, err := os.Stat(filepath.Join(dir, durableFileName("a"))); !os.IsNotExist(err) {
		t.Fatalf("evicted record still on disk (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, durableFileName("b"))); err != nil {
		t.Fatalf("resident record missing: %v", err)
	}
}

// TestDurablePutFailpoint: an injected persist failure is counted, leaves no
// file behind, and does not disturb the in-memory cache.
func TestDurablePutFailpoint(t *testing.T) {
	p, ok := fault.Lookup("service/durable.put")
	if !ok {
		t.Fatal("service/durable.put not registered")
	}
	p.Enable(fault.Trigger{})
	defer p.Disable()

	dir := t.TempDir()
	store, err := openDurableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := newResultCache(4, store)
	c.put("k", &sim.Result{Cycles: 3})
	store.flush()
	store.close()
	if got := store.persistErrs.Load(); got != 1 {
		t.Fatalf("want 1 persist error, got %d", got)
	}
	if _, err := os.Stat(filepath.Join(dir, durableFileName("k"))); !os.IsNotExist(err) {
		t.Fatalf("dropped write still produced a file (err=%v)", err)
	}
	if _, ok := c.get("k"); !ok {
		t.Fatal("in-memory entry must survive a persist failure")
	}
}
