package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/service"
)

// top is the live sweep dashboard: it consumes the server's NDJSON stats
// stream (/api/v1/stats/stream) and redraws a terminal view per frame —
// queue depth, per-worker-lane running and hung jobs (the SHARD table),
// running jobs with phase and ETA, cache hit and coalesce rates, per-node
// fabric rows in cluster mode, and the watchdog verdict. A dropped stream
// (server restart, network blip) reconnects with the client's jittered
// backoff, resuming with the remaining frame budget; only c.retries
// consecutive failures give up. -plain appends frames instead of clearing
// the screen (logs, CI); -frames bounds the session (smoke tests).
func (c *client) top(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "refresh period")
	frames := fs.Int("frames", 0, "stop after N frames (0 = until interrupted)")
	plain := fs.Bool("plain", false, "append frames instead of clearing the screen")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	remaining := *frames
	attempt := 0 // consecutive failures; any successful frame resets it
	for {
		path := fmt.Sprintf("/api/v1/stats/stream?poll=%d", interval.Milliseconds())
		if *frames > 0 {
			path += fmt.Sprintf("&frames=%d", remaining)
		}
		// Like watch: the stream must not carry the client-wide deadline.
		resp, err := (&http.Client{}).Get(c.base + path)
		if err != nil {
			if attempt >= c.retries {
				fmt.Fprintf(os.Stderr, "emcctl: server unreachable after %d attempts: %v\n", attempt+1, err)
				os.Exit(3)
			}
			c.backoff(attempt)
			attempt++
			continue
		}
		if resp.StatusCode != http.StatusOK {
			fatalStatus(resp)
		}
		et := newEtaTracker()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if len(strings.TrimSpace(sc.Text())) == 0 {
				continue
			}
			var f service.StatsFrame
			if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
				fmt.Fprintln(os.Stderr, "emcctl: bad stats frame:", err)
				continue
			}
			attempt = 0 // healthy stream: reset the failure budget
			if *frames > 0 {
				remaining--
			}
			if !*plain {
				fmt.Print("\x1b[H\x1b[2J") // home + clear
			}
			fmt.Print(renderTop(&f, et))
		}
		resp.Body.Close()
		if *frames > 0 && remaining <= 0 {
			return // frame budget spent: a normal end of session
		}
		// The stream dropped mid-session: reconnect with backoff, same
		// policy as the initial dial.
		if attempt >= c.retries {
			fmt.Fprintf(os.Stderr, "emcctl: stats stream dropped and %d reconnects failed\n", attempt)
			os.Exit(3)
		}
		c.backoff(attempt)
		attempt++
	}
}

// etaTracker estimates per-job completion from the retired-instruction rate
// between consecutive frames.
type etaTracker struct {
	prev map[string]etaSample
}

type etaSample struct {
	at      time.Time
	retired uint64
}

func newEtaTracker() *etaTracker { return &etaTracker{prev: map[string]etaSample{}} }

// eta returns a human ETA string for st, or "-" when no rate is known yet.
func (e *etaTracker) eta(at time.Time, st *service.Status) string {
	defer func() { e.prev[st.ID] = etaSample{at: at, retired: st.Retired} }()
	p, ok := e.prev[st.ID]
	if !ok || st.TargetInstrs == 0 || st.Retired >= st.TargetInstrs {
		return "-"
	}
	dt := at.Sub(p.at).Seconds()
	if dt <= 0 || st.Retired <= p.retired {
		return "-"
	}
	rate := float64(st.Retired-p.retired) / dt
	left := time.Duration(float64(st.TargetInstrs-st.Retired) / rate * float64(time.Second))
	return "~" + left.Round(time.Second).String()
}

// renderTop formats one dashboard frame.
func renderTop(f *service.StatsFrame, et *etaTracker) string {
	st := &f.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "emcserve top  %s\n", f.Time.Format(time.RFC3339))
	fmt.Fprintf(&b, "workers %d  queued %d  running %d  hung %d\n",
		st.Workers, st.QueueDepth, st.Running, st.Hung)
	fmt.Fprintf(&b, "jobs: %d submitted  %d done  %d failed  %d cancelled  %d retries\n",
		st.Submitted, st.Done, st.Failed, st.Cancelled, st.Retries)
	fmt.Fprintf(&b, "cache: %s hit  (%d hits / %d misses, %d entries)  coalesced %s\n",
		ratio(st.CacheHits, st.CacheHits+st.CacheMisses),
		st.CacheHits, st.CacheMisses, st.CacheEntries,
		ratio(st.Coalesced, st.Submitted))
	if st.FlightDumps > 0 || st.FlightDumpErrs > 0 {
		fmt.Fprintf(&b, "flight recorder: %d dumps  %d errors\n", st.FlightDumps, st.FlightDumpErrs)
	}

	if len(st.Shards) > 0 {
		fmt.Fprintf(&b, "\n%-6s %8s %5s\n", "SHARD", "RUNNING", "HUNG")
		for _, sh := range st.Shards {
			fmt.Fprintf(&b, "%-6d %8d %5d\n", sh.Shard, sh.Running, sh.Hung)
		}
	}

	if len(st.Nodes) > 0 {
		fmt.Fprintf(&b, "\n%-10s %-8s %7s %8s %5s %6s %9s %6s %8s\n",
			"NODE", "STATE", "QUEUED", "RUNNING", "HUNG", "FWD", "STOLEN", "TORN", "BEAT")
		for i := range st.Nodes {
			nd := &st.Nodes[i]
			beat := "-" // the self row has no heartbeat to age
			if nd.State != "self" {
				if nd.HeartbeatAgeMS < 0 {
					beat = "never"
				} else {
					beat = fmt.Sprintf("%dms", nd.HeartbeatAgeMS)
				}
			}
			state := nd.State
			if nd.Syncing {
				// Anti-entropy backfill in flight; shown in place of
				// alive/self (dead dominates).
				if state == "alive" || state == "self" {
					state = "syncing"
				}
			}
			fmt.Fprintf(&b, "%-10s %-8s %7d %8d %5d %6d %9s %6d %8s\n",
				nd.Node, state, nd.Queued, nd.Running, nd.Hung, nd.Forwarded,
				fmt.Sprintf("%d/%d", nd.StolenIn, nd.StolenOut), nd.Torn, beat)
		}
	}

	if len(f.Active) > 0 {
		fmt.Fprintf(&b, "\n%-8s %-10s %5s %-14s %14s %7s %8s\n",
			"JOB", "CLIENT", "SHARD", "PHASE", "PROGRESS", "IPC", "ETA")
		active := append([]service.Status(nil), f.Active...)
		sort.Slice(active, func(i, j int) bool { return active[i].ID < active[j].ID })
		for i := range active {
			a := &active[i]
			fmt.Fprintf(&b, "%-8s %-10s %5d %-14s %14s %7.2f %8s\n",
				a.ID, a.Client, a.Shard, phaseOf(a),
				fmt.Sprintf("%d/%d", a.Retired, a.TargetInstrs), a.IPC, et.eta(f.Time, a))
		}
	}
	return b.String()
}

// phaseOf names the job's current phase for display, folding the watchdog
// verdict in ("running (hung)" is the state to stare at).
func phaseOf(st *service.Status) string {
	if st.State == service.StateRunning && st.Hung {
		return "running (hung)"
	}
	return string(st.State)
}

// ratio renders a/b as a percentage ("-" when b is 0).
func ratio(a, b uint64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
}
