package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestAllProfilesValid(t *testing.T) {
	for _, name := range AllNames() {
		p := MustByName(name)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile %q has Name %q", name, p.Name)
		}
	}
}

func TestTable2Classification(t *testing.T) {
	high := map[string]bool{}
	for _, n := range HighIntensityNames() {
		high[n] = true
	}
	if len(high) != 8 {
		t.Fatalf("expected 8 high-intensity benchmarks, got %d", len(high))
	}
	for _, name := range AllNames() {
		p := MustByName(name)
		if p.MemIntensive != high[name] {
			t.Errorf("%s: MemIntensive=%v, want %v", name, p.MemIntensive, high[name])
		}
	}
	// The paper's Table 2 lists 8 high + 21 low = 29 benchmarks.
	if got := len(AllNames()); got != 29 {
		t.Errorf("expected 29 profiles, got %d", got)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("notabenchmark"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Generate(MustByName("mcf"), 42, 5000)
	b := Generate(MustByName("mcf"), 42, 5000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("uop %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := Generate(MustByName("mcf"), 43, 5000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

// TestValueConsistencyAll is the central trace invariant: every benchmark's
// trace passes the ISS check (addresses recomputable from dataflow, stack
// load/store aliasing consistent).
func TestValueConsistencyAll(t *testing.T) {
	for _, name := range AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := Check(&SliceReader{Uops: Generate(MustByName(name), 7, 20000)}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: value consistency holds for arbitrary seeds.
func TestValueConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		return Check(&SliceReader{Uops: Generate(MustByName("mcf"), seed, 4000)}) == nil
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestInstructionMix(t *testing.T) {
	for _, name := range []string{"mcf", "lbm", "libquantum", "omnetpp", "gcc"} {
		p := MustByName(name)
		g := NewGenerator(p, 11)
		const n = 60000
		for i := 0; i < n; i++ {
			g.Next()
		}
		st := g.Stats()
		memFrac := float64(st.Loads+st.Stores) / float64(st.Uops)
		brFrac := float64(st.Branches) / float64(st.Uops)
		if memFrac < p.MemFrac*0.85 || memFrac > p.MemFrac*1.25 {
			t.Errorf("%s: mem frac %.3f, want near %.3f", name, memFrac, p.MemFrac)
		}
		if p.BranchFrac > 0.02 && (brFrac < p.BranchFrac*0.7 || brFrac > p.BranchFrac*1.3) {
			t.Errorf("%s: branch frac %.3f, want near %.3f", name, brFrac, p.BranchFrac)
		}
	}
}

func TestChaseStructure(t *testing.T) {
	p := MustByName("mcf")
	g := NewGenerator(p, 3)
	for i := 0; i < 50000; i++ {
		g.Next()
	}
	st := g.Stats()
	if st.ChaseEpisodes == 0 {
		t.Fatal("mcf generated no chase episodes")
	}
	if st.DepChainLinks == 0 {
		t.Fatal("mcf generated no dependent chain links")
	}
	avgOps := float64(st.DepChainOps) / float64(st.DepChainLinks)
	lo, hi := float64(p.ChainALUOps[0]), float64(p.ChainALUOps[1])
	if avgOps < lo || avgOps > hi {
		t.Errorf("avg chain ops %.2f outside profile range [%v,%v]", avgOps, lo, hi)
	}
	// lbm must have zero chase activity (paper: "lbm contains no dependent
	// cache misses").
	gl := NewGenerator(MustByName("lbm"), 3)
	for i := 0; i < 50000; i++ {
		gl.Next()
	}
	if gl.Stats().ChaseLoads != 0 {
		t.Errorf("lbm generated %d chase loads, want 0", gl.Stats().ChaseLoads)
	}
}

// TestChaseAddressDataflow verifies end-to-end that executing the chain ops
// functionally reproduces every dependent load's recorded address — the
// property the EMC relies on.
func TestChaseAddressDataflow(t *testing.T) {
	uops := Generate(MustByName("mcf"), 9, 30000)
	iss := NewISS()
	for i := range uops {
		u := &uops[i]
		if u.Op == isa.OpLoad && u.Addr >= ChaseBase && u.Addr < StoreBase {
			if got := iss.Regs[u.Src1] + uint64(u.Imm); got != u.Addr {
				t.Fatalf("chase load %v: dataflow address %#x != %#x", u, got, u.Addr)
			}
		}
		if err := iss.Step(u); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSliceReader(t *testing.T) {
	us := []isa.Uop{{Seq: 0}, {Seq: 1}}
	sr := &SliceReader{Uops: us}
	for i := 0; i < 2; i++ {
		u, ok := sr.Next()
		if !ok || u.Seq != uint64(i) {
			t.Fatalf("unexpected uop at %d: %v ok=%v", i, u, ok)
		}
	}
	if _, ok := sr.Next(); ok {
		t.Error("SliceReader should be exhausted")
	}
}

func TestPRNG(t *testing.T) {
	p := NewPRNG(0) // zero seed remaps
	if p.Uint64() == 0 {
		t.Error("first output should not be zero")
	}
	q := NewPRNG(5)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[q.Uint64()] = true
	}
	if len(seen) != 1000 {
		t.Errorf("PRNG produced duplicates in 1000 draws: %d unique", len(seen))
	}
	// Range bounds.
	for i := 0; i < 100; i++ {
		v := q.Range(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("Range out of bounds: %d", v)
		}
	}
	if q.Range(5, 5) != 5 || q.Range(9, 2) != 9 {
		t.Error("degenerate Range behaviour wrong")
	}
	fork := q.Fork()
	if fork.Uint64() == q.Uint64() {
		t.Error("forked stream should diverge")
	}
}

func TestPRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewPRNG(1).Intn(0)
}

func TestFloat64Bounds(t *testing.T) {
	p := NewPRNG(123)
	for i := 0; i < 10000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestStreamsWrap(t *testing.T) {
	// libquantum has one big stream; generating a lot must wrap without
	// violating consistency.
	if err := Check(&SliceReader{Uops: Generate(MustByName("libquantum"), 2, 100000)}); err != nil {
		t.Fatal(err)
	}
}

func TestMemIntensityOrdering(t *testing.T) {
	// High-intensity profiles must direct a larger share of loads at
	// LLC-missing regions than low-intensity ones.
	missShare := func(p Profile) float64 {
		tot := p.loadShareTotal()
		return (p.StreamShare + p.RandomShare + p.ChaseShare) / tot
	}
	for _, hi := range HighIntensityNames() {
		for _, lo := range []string{"calculix", "povray", "namd", "gamess"} {
			if missShare(MustByName(hi)) <= missShare(MustByName(lo)) {
				t.Errorf("%s should have higher miss share than %s", hi, lo)
			}
		}
	}
}

// TestPersistentTraversalSerialization verifies the property the EMC's
// benefit depends on: within a chase stream, every pointer load's address
// register is (transitively) produced by the previous pointer load — the
// walk is one long dependence chain, not overlappable episodes.
func TestPersistentTraversalSerialization(t *testing.T) {
	p := MustByName("mcf")
	uops := Generate(p, 21, 30000)
	// producer[r] = index of the uop that last wrote register r.
	producer := make(map[isa.Reg]int)
	// chaseDepends counts chase loads whose base register traces back to an
	// earlier chase load through register dataflow.
	var chaseLoads, chaseDepends int
	dependsOnLoad := make([]bool, len(uops)) // uop's dst derives from a chase load
	for i := range uops {
		u := &uops[i]
		derived := false
		for _, src := range []isa.Reg{u.Src1, u.Src2} {
			if !src.Valid() {
				continue
			}
			if j, ok := producer[src]; ok && dependsOnLoad[j] {
				derived = true
			}
		}
		isChase := u.Op == isa.OpLoad && u.Addr >= ChaseBase && u.Addr < StoreBase
		if isChase {
			chaseLoads++
			if derived {
				chaseDepends++
			}
		}
		if u.HasDst() {
			producer[u.Dst] = i
			dependsOnLoad[i] = isChase || derived && u.Op.EMCAllowed()
		}
	}
	if chaseLoads == 0 {
		t.Fatal("no chase loads")
	}
	frac := float64(chaseDepends) / float64(chaseLoads)
	if frac < 0.80 {
		t.Errorf("only %.0f%% of chase loads depend on a prior chase load; traversals not persistent", 100*frac)
	}
}
