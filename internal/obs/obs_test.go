package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNewTracerDisabled(t *testing.T) {
	if tr := NewTracer(Config{}); tr != nil {
		t.Fatal("disabled config must yield a nil tracer")
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(Config{Enabled: true, SampleEvery: 4})
	var got int
	for i := 0; i < 10; i++ {
		if r := tr.Start(SrcCore, 0, uint64(i), 0, false, 100); r != nil {
			got++
			tr.Finish(r)
		}
	}
	// seq 1, 5, 9 hit the modulo.
	if got != 3 {
		t.Fatalf("sampled %d of 10 at 1-in-4, want 3", got)
	}
	if tr.Started() != 3 {
		t.Fatalf("Started = %d", tr.Started())
	}
	if tr.SampleEvery() != 4 {
		t.Fatalf("SampleEvery = %d", tr.SampleEvery())
	}
}

func TestTracerPoolingReusesRecords(t *testing.T) {
	tr := NewTracer(Config{Enabled: true})
	r1 := tr.Start(SrcCore, 1, 0xabc, 0x10, true, 5)
	tr.StampEvent(r1, StageFill, 50)
	tr.Finish(r1)
	r2 := tr.Start(SrcEMC, 2, 0xdef, 0x20, false, 6)
	if r2 != r1 {
		t.Fatal("un-retained record was not recycled")
	}
	if len(r2.Events) != 1 || r2.Events[0].Stage != StageIssue || r2.Events[0].At != 6 {
		t.Fatalf("recycled record kept stale events: %+v", r2.Events)
	}
	if r2.Source != SrcEMC || r2.Core != 2 || r2.Dependent {
		t.Fatalf("recycled record kept stale identity: %+v", r2)
	}
}

func TestTracerRetainAndDrop(t *testing.T) {
	tr := NewTracer(Config{Enabled: true, Retain: true, MaxRecords: 2})
	for i := 0; i < 3; i++ {
		r := tr.Start(SrcCore, 0, uint64(i), 0, false, uint64(i))
		tr.Finish(r)
	}
	if len(tr.Records()) != 2 {
		t.Fatalf("retained %d records, want MaxRecords=2", len(tr.Records()))
	}
	rep := tr.Report()
	if rep.Finished != 3 || rep.Dropped != 1 {
		t.Fatalf("finished/dropped = %d/%d, want 3/1", rep.Finished, rep.Dropped)
	}
}

func TestCompsFromStampsFullPath(t *testing.T) {
	st := Stamps{Issued: 100, SliceReach: 110, SliceDone: 115,
		MCReach: 130, DRAMIssued: 170, DRAMDone: 250, Fill: 260}
	comps, total := CompsFromStamps(st)
	if total != 160 {
		t.Fatalf("total = %d", total)
	}
	want := map[Component]uint64{
		CompRingReq: 25, CompLLCLookup: 5, CompQueue: 40,
		CompDRAM: 80, CompRingRsp: 10, CompMerged: 0,
	}
	var sum uint64
	for c, w := range want {
		if comps[c] != w {
			t.Errorf("%s = %d, want %d", c, comps[c], w)
		}
	}
	for _, v := range comps {
		sum += v
	}
	if sum != total {
		t.Fatalf("components sum %d != total %d", sum, total)
	}
}

func TestCompsFromStampsPartialTimelines(t *testing.T) {
	cases := []struct {
		name string
		st   Stamps
	}{
		{"merged at MC (no DRAM stamps)", Stamps{Issued: 10, SliceReach: 12, SliceDone: 14, MCReach: 20, Fill: 90}},
		{"merged at slice (slice-only)", Stamps{Issued: 10, SliceReach: 12, SliceDone: 14, Fill: 90}},
		{"no stamps at all", Stamps{Issued: 10, Fill: 90}},
		{"emc direct (no slice)", Stamps{Issued: 10, MCReach: 13, DRAMIssued: 30, DRAMDone: 80, Fill: 85}},
		{"dram issued before this waiter arrived", Stamps{Issued: 50, MCReach: 60, DRAMIssued: 40, DRAMDone: 80, Fill: 90}},
	}
	for _, tc := range cases {
		comps, total := CompsFromStamps(tc.st)
		if total != tc.st.Fill-tc.st.Issued {
			t.Errorf("%s: total = %d", tc.name, total)
		}
		var sum uint64
		for _, v := range comps {
			sum += v
		}
		if sum != total {
			t.Errorf("%s: components sum %d != total %d (comps %v)", tc.name, sum, total, comps)
		}
	}
	// Inverted fill must not underflow.
	if _, total := CompsFromStamps(Stamps{Issued: 100, Fill: 20}); total != 0 {
		t.Fatalf("inverted timeline total = %d, want 0", total)
	}
}

func TestAttributionSourceRouting(t *testing.T) {
	var at Attribution
	at.AddStamps(SrcCore, Stamps{Issued: 0, Fill: 100})
	at.AddStamps(SrcEMC, Stamps{Issued: 0, Fill: 40})
	at.AddStamps(SrcPrefetch, Stamps{Issued: 0, Fill: 999}) // not attributed
	if at.Core.Count != 1 || at.Core.TotalSum != 100 {
		t.Fatalf("core attr %+v", at.Core.Count)
	}
	if at.EMC.Count != 1 || at.EMC.TotalSum != 40 {
		t.Fatalf("emc attr %+v", at.EMC.Count)
	}
}

func TestReportTable(t *testing.T) {
	tr := NewTracer(Config{Enabled: true})
	tr.Attr().AddStamps(SrcCore, Stamps{Issued: 100, SliceReach: 110, SliceDone: 115,
		MCReach: 130, DRAMIssued: 170, DRAMDone: 250, Fill: 260})
	tab := tr.Report().Table()
	for _, want := range []string{"core", "ring_req", "dram", "on-chip", "p50<="} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}

func TestRegistryPrometheus(t *testing.T) {
	reg := NewRegistry()
	g := reg.NewGroup(map[string]string{"run": `H4 "emc"`}, []string{"cycles", "IPC-now"})
	g.Publish([]float64{12345, 0.5})
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE emcsim_cycles gauge",
		`emcsim_cycles{run="H4 \"emc\""} 12345`,
		"emcsim_ipc_now{", // sanitized: lowercase, '-' -> '_'
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestGroupSnapshot(t *testing.T) {
	reg := NewRegistry()
	g := reg.NewGroup(nil, []string{"a"})
	g.Publish([]float64{7})
	if v := g.Snapshot(nil); len(v) != 1 || v[0] != 7 {
		t.Fatalf("Snapshot = %v", v)
	}
}

func TestCounterLogDueAcrossSkips(t *testing.T) {
	l := NewCounterLog(100, []string{"x"})
	if !l.Due(0) {
		t.Fatal("first sample should be due immediately")
	}
	l.Record(0, []float64{1})
	if l.Due(99) {
		t.Fatal("not due before the interval")
	}
	// The event-horizon scheduler can jump far past a boundary; the next
	// deadline must move past `now`, not accumulate a backlog.
	if !l.Due(357) {
		t.Fatal("due after skipping past a boundary")
	}
	l.Record(357, []float64{2})
	if l.Due(399) {
		t.Fatal("deadline should be 400 after sampling at 357")
	}
	if !l.Due(400) {
		t.Fatal("due at the next boundary")
	}
	var b bytes.Buffer
	if err := l.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Interval uint64 `json:"intervalCycles"`
		Samples  []struct {
			Cycle uint64 `json:"cycle"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Interval != 100 || len(decoded.Samples) != 2 || decoded.Samples[1].Cycle != 357 {
		t.Fatalf("decoded %+v", decoded)
	}
}

func TestChromeExportWellFormed(t *testing.T) {
	tr := NewTracer(Config{Enabled: true, Retain: true})
	r := tr.Start(SrcCore, 2, 0x1000, 0x400, true, 10)
	tr.StampEvent(r, StageSliceReach, 15)
	tr.StampEvent(r, StageSliceDone, 16)
	tr.StampEvent(r, StageMCReach, 20)
	// Backdated: the DRAM request this waiter merged onto issued earlier.
	tr.StampEvent(r, StageDRAMIssue, 18)
	tr.StampEvent(r, StageDRAMDone, 60)
	tr.StampEvent(r, StageFill, 70)
	tr.Finish(r)

	exp := &ChromeExport{}
	exp.Add("test-run", tr)
	if exp.Runs() != 1 {
		t.Fatalf("Runs = %d", exp.Runs())
	}
	var b bytes.Buffer
	if err := exp.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			ID   string  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &tf); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	var open int
	last := -1.0
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
		case "b":
			open++
			last = ev.Ts
		case "n", "e":
			if open == 0 {
				t.Fatalf("%s before begin", ev.Ph)
			}
			if ev.Ts < last {
				t.Fatalf("timestamps not monotonic: %v after %v", ev.Ts, last)
			}
			last = ev.Ts
			if ev.Ph == "e" {
				open--
			}
		default:
			t.Fatalf("unknown phase %q", ev.Ph)
		}
	}
	if open != 0 {
		t.Fatalf("%d spans left open", open)
	}
}

func TestChromeExportSkipsEmptyTracer(t *testing.T) {
	exp := &ChromeExport{}
	exp.Add("nil", nil)
	exp.Add("empty", NewTracer(Config{Enabled: true, Retain: true}))
	if exp.Runs() != 0 {
		t.Fatalf("Runs = %d, want 0", exp.Runs())
	}
}
