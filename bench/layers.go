package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// hostLayers are the shares a CPU profile is folded into, one per module of
// the repository plus the Go runtime and everything else. host.horizon takes
// the event-horizon computation out of the modules it lives in.
var hostLayers = []string{
	"host.cpu", "host.cache", "host.ring", "host.dram", "host.emc",
	"host.prefetch", "host.tracegen", "host.horizon", "host.sim",
	"host.service", "host.cluster", "host.figures", "host.runtime", "host.other",
}

var layerOfPkg = map[string]string{
	"repro/internal/cpu":          "host.cpu",
	"repro/internal/mem/cache":    "host.cache",
	"repro/internal/interconnect": "host.ring",
	"repro/internal/mem/dram":     "host.dram",
	"repro/internal/emc":          "host.emc",
	"repro/internal/prefetch":     "host.prefetch",
	"repro/internal/trace":        "host.tracegen",
	"repro/internal/sim":          "host.sim",
	"repro/internal/service":      "host.service",
	"repro/internal/cluster":      "host.cluster",
	"repro/internal/figures":      "host.figures",
}

// splitFunc splits a profiled function name such as
// "repro/internal/cpu.(*Core).issue" into its import path and symbol.
func splitFunc(fn string) (pkg, sym string) {
	head := fn
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i] // type arguments may hold slashes and dots
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	cut := slash + 1 + dot
	return fn[:cut], fn[cut+1:]
}

// layerOf attributes a profiled function to its host layer.
func layerOf(fn string) string {
	pkg, sym := splitFunc(fn)
	for _, part := range strings.Split(sym, ".") {
		if part == "NextEvent" || pkg == "repro/internal/sim" && (part == "horizon" || part == "sliceNext") {
			return "host.horizon"
		}
	}
	if l, ok := layerOfPkg[pkg]; ok {
		return l
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "internal/bytealg", pkg == "sync", pkg == "sync/atomic":
		return "host.runtime"
	}
	return "host.other"
}

// durationUnits scales the unit suffixes pprof prints on CPU-time columns to
// seconds.
var durationUnits = map[string]float64{
	"": 1, "ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600,
}

func parseFlat(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i < 0 {
		i = len(s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, err
	}
	scale, ok := durationUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("unknown unit %q", s[i:])
	}
	return v * scale, nil
}

// foldTop folds the flat column of `go tool pprof -top` output into host
// layer shares. Every listed function lands in exactly one layer, so the
// shares sum to 1.
func foldTop(top string) (map[string]float64, error) {
	shares := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		shares[l] = 0
	}
	var total float64
	table := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseFlat(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		shares[layerOf(name)] += flat
		total += flat
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top lists no samples")
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// hostShares merges CPU profiles with `go tool pprof -top` and folds the
// flat time of every function into host layers.
func hostShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodefraction=0"}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v\n%s", err, stderr.Bytes())
	}
	return foldTop(string(out))
}
