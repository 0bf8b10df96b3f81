package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentRegisterSnapshot races group registration (published
// and read groups), publishing, histogram registration and observation, and
// every reader (Prometheus text, raw snapshots) against each
// other. Run under -race (the
// Makefile's race target includes internal/obs); the assertion here is
// simply that nothing tears, panics, or deadlocks and the final exposition
// is complete.
func TestRegistryConcurrentRegisterSnapshot(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const rounds = 50

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			g := r.NewGroup(map[string]string{"run": fmt.Sprintf("w%d", i)}, []string{"a", "b"})
			for n := 0; n < rounds; n++ {
				g.Publish([]float64{float64(n), float64(2 * n)})
				_ = g.Snapshot(nil)
			}
			r.NewGroupFunc(map[string]string{"read": fmt.Sprintf("w%d", i)}, []string{"c"},
				func() []float64 { return []float64{float64(i)} })
			h := r.NewHistogram(fmt.Sprintf("h%d", i), []float64{1})
			h.With(map[string]string{"run": fmt.Sprintf("w%d", i)}).Observe(float64(i))
		}(i)
	}
	readers := 4
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for n := 0; n < rounds; n++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for i := 0; i < writers; i++ {
		if !strings.Contains(out, fmt.Sprintf("emcsim_h%d_count{run=\"w%d\"} 1", i, i)) {
			t.Errorf("final exposition missing histogram %d:\n%s", i, out)
		}
		if !strings.Contains(out, fmt.Sprintf(`emcsim_b{run="w%d"} %d`, i, 2*(rounds-1))) {
			t.Errorf("final exposition missing group w%d", i)
		}
		if !strings.Contains(out, fmt.Sprintf(`emcsim_c{read="w%d"} %d`, i, i)) {
			t.Errorf("final exposition missing read group w%d", i)
		}
	}
}

// TestRegistryHistogramOrdering: histograms render after every gauge group,
// so the TYPE headers of the groups never interleave with histogram output.
func TestRegistryHistogramOrdering(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("h", []float64{1}).With(nil).Observe(0.5)
	g := r.NewGroup(nil, []string{"x"})
	g.Publish([]float64{42})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	gi := strings.Index(out, "emcsim_x 42")
	hi := strings.Index(out, "emcsim_h_count 1")
	if gi < 0 || hi < 0 || hi < gi {
		t.Fatalf("histogram output must follow gauge groups:\n%s", out)
	}
}

// TestRegistryFamiliesContiguous: two groups sharing metric names (one per
// run, as experiments -http registers them) render each family's # TYPE
// once, followed by all of its series — the text format requires a
// family's lines to be contiguous.
func TestRegistryFamiliesContiguous(t *testing.T) {
	r := NewRegistry()
	r.NewGroup(map[string]string{"run": "a"}, []string{"cycles", "ipc"}).Publish([]float64{1, 2})
	r.NewGroup(map[string]string{"run": "b"}, []string{"cycles", "ipc"}).Publish([]float64{3, 4})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE emcsim_cycles gauge
emcsim_cycles{run="a"} 1
emcsim_cycles{run="b"} 3
# TYPE emcsim_ipc gauge
emcsim_ipc{run="a"} 2
emcsim_ipc{run="b"} 4
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryGroupFuncReadsAtScrape: a read group's values come from its
// read function at every scrape.
func TestRegistryGroupFuncReadsAtScrape(t *testing.T) {
	r := NewRegistry()
	n := 0.0
	r.NewGroupFunc(map[string]string{"component": "t"}, []string{"reads"}, func() []float64 {
		n++
		return []float64{n}
	})
	for want := 1; want <= 2; want++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf(`emcsim_reads{component="t"} %d`, want); !strings.Contains(b.String(), line) {
			t.Fatalf("scrape %d missing %q:\n%s", want, line, b.String())
		}
	}
}
