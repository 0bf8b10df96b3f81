// Command emcserve runs the simulation service: the job scheduler (a worker
// pool sharing one fair queue) and content-addressed result cache from
// internal/service, behind an HTTP API. Sweep drivers submit configurations
// as JSON jobs; identical configurations coalesce in flight and hit the
// cache afterwards.
//
// Examples:
//
//	emcserve -addr 127.0.0.1:8080 -workers 4
//	emcserve -cache-dir /var/lib/emcsim/cache   # results survive restarts
//	emcctl -server http://127.0.0.1:8080 submit -bench mcf,mcf,mcf,mcf -emc -wait
//
// SIGINT/SIGTERM drain gracefully: intake stops, queued and running jobs
// finish (bounded by -drain-timeout), then the process exits. A second
// signal cancels everything still running. With -cache-dir the durable
// result cache is flushed before exit, and the final log line reports the
// disposition of jobs that did not finish: every one is resumable (an
// identical resubmit recomputes or reloads it).
//
// Fault injection: EMCSIM_FAILPOINTS="site=policy;..." arms failpoints at
// boot (see internal/fault for the site catalog and policy grammar).
//
// Cluster mode (-node-id) turns the process into one node of a sweep
// fabric (see internal/cluster and DESIGN.md §15): submissions to any node
// route to the key's consistent-hash owner, the entry node fetches the
// result as a durable EMCR record, anti-entropy converges the durable
// caches, and idle nodes (a freshly joined one too) steal queued work from
// peers whose workers are all busy — the victim forwards a queued job to
// the thief and follows it like any other forwarded job:
//
//	emcserve -addr 127.0.0.1:8081 -node-id a
//	emcserve -addr 127.0.0.1:8082 -node-id b -join http://127.0.0.1:8081
//	emcserve -addr 127.0.0.1:8083 -node-id c -join http://127.0.0.1:8081
//
// Membership is either bootstrapped from a running member (-join URL) or
// declared statically (-peers id=url,id=url). -advertise overrides the URL
// peers use to reach this node (defaults to http://<addr>).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "worker goroutines, all popping one shared queue (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue-cap", 64, "max queued jobs before submissions get 429")
	cacheCap := flag.Int("cache-cap", 256, "result cache entries (LRU)")
	retries := flag.Int("max-retries", 2, "retries after a worker panic before a job fails")
	cacheDir := flag.String("cache-dir", "", "durable result cache directory (empty = in-memory only)")
	hungTimeout := flag.Duration("hung-timeout", 0, "mark running jobs hung after this much progress silence (0 = off)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	flightDir := flag.String("flight-dir", "", "write flight-recorder dumps (.emfr) here on hang/panic/failure (empty = off)")
	nodeID := flag.String("node-id", "", "cluster node id (empty = single-process mode)")
	advertise := flag.String("advertise", "", "base URL peers use to reach this node (default http://<addr>)")
	join := flag.String("join", "", "bootstrap membership from this member URL (comma-separated URLs tried in order)")
	peers := flag.String("peers", "", "static membership as id=url,id=url (alternative to -join)")
	heartbeat := flag.Duration("heartbeat", time.Second, "cluster heartbeat interval")
	suspect := flag.Duration("suspect-after", 0, "mark peers dead after this much heartbeat silence (0 = 4x heartbeat)")
	antiEntropy := flag.Duration("anti-entropy-interval", 30*time.Second, "anti-entropy cadence: each round reads one peer's key list and backfills missing records")
	ringWeight := flag.Int("ring-weight", 1, "this node's ring weight (virtual-point multiplier for heterogeneous nodes)")
	clusterToken := flag.String("cluster-token", "", "shared bearer token guarding /api/v1/cluster/* (empty = no auth)")
	flag.Parse()

	if err := fault.EnableFromSpec(os.Getenv("EMCSIM_FAILPOINTS")); err != nil {
		fmt.Fprintln(os.Stderr, "emcserve:", err)
		os.Exit(1)
	}

	reg := obs.NewRegistry()
	svc, err := service.Open(service.Config{
		Workers:     *workers,
		QueueCap:    *queueCap,
		CacheCap:    *cacheCap,
		MaxRetries:  *retries,
		CacheDir:    *cacheDir,
		HungTimeout: *hungTimeout,
		Metrics:     reg,
		FlightDir:   *flightDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "emcserve:", err)
		os.Exit(1)
	}
	if *cacheDir != "" {
		st := svc.Stats()
		fmt.Printf("emcserve: durable cache %s: %d results loaded, %d quarantined\n",
			*cacheDir, st.CacheLoaded, st.CacheQuarantined)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emcserve:", err)
		os.Exit(1)
	}

	// Cluster mode: wrap the service in a fabric node and swap in the
	// cluster handler (which routes client submits and adds the inter-node
	// endpoints). Single-process mode is byte-for-byte the old server.
	handler := service.NewHandler(svc, reg)
	var node *cluster.Node
	if *nodeID != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		node = cluster.New(svc, cluster.Options{
			ID:                  *nodeID,
			Addr:                adv,
			HeartbeatInterval:   *heartbeat,
			SuspectAfter:        *suspect,
			AntiEntropyInterval: *antiEntropy,
			Weight:              *ringWeight,
		})
		tr := cluster.NewHTTPTransport(node.MemberAddr)
		tr.Token = *clusterToken
		tr.Self = *nodeID
		node.SetTransport(tr)
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p == "" {
				continue
			}
			id, url, ok := strings.Cut(p, "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "emcserve: bad -peers entry %q (want id=url)\n", p)
				os.Exit(1)
			}
			node.AddMember(cluster.Member{ID: id, Addr: url})
		}
		self := cluster.Member{ID: *nodeID, Addr: adv, Weight: *ringWeight}
		for _, u := range strings.Split(*join, ",") {
			if u = strings.TrimSpace(u); u == "" {
				continue
			}
			joinCtx, joinCancel := context.WithTimeout(context.Background(), 10*time.Second)
			members, err := tr.JoinAddr(joinCtx, u, self)
			joinCancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "emcserve: join %s: %v\n", u, err)
				continue
			}
			for _, m := range members {
				node.AddMember(m)
			}
		}
		node.Start()
		fmt.Printf("emcserve: cluster node %s advertising %s (%d members known)\n",
			*nodeID, adv, len(node.Members()))
		handler = cluster.NewHandler(node, reg, *clusterToken)
	}

	srv := &http.Server{Handler: handler}
	// The bound address line is parsed by scripts (make serve-smoke); keep
	// its shape stable.
	fmt.Printf("emcserve listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "emcserve:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("emcserve: %v: draining (repeat to cancel running jobs)\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigc
		fmt.Println("emcserve: second signal: cancelling running jobs")
		cancel()
	}()
	if node != nil {
		node.Close() // stop fabric loops before the scheduler drains
	}
	if err := svc.Drain(ctx); err != nil {
		svc.Close()
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	srv.Shutdown(shutCtx) //nolint:errcheck // exiting anyway

	// Disposition of jobs that did not reach done: every one is resumable —
	// resubmitting the same configuration is idempotent (it reloads from the
	// durable cache or deterministically recomputes). The final line is the
	// crash-recovery audit trail.
	resumable := 0
	for _, js := range svc.Jobs() {
		// Done and failed jobs ran to their verdict.
		if !js.State.Terminal() || js.State == service.StateCancelled {
			resumable++
		}
	}
	st := svc.Stats()
	durable := "no durable cache"
	if *cacheDir != "" {
		durable = fmt.Sprintf("durable cache flushed (%d records persisted, %d persist errors)",
			st.CachePersisted, st.CachePersistErrs)
	}
	fmt.Printf("emcserve: shutdown: %d done, %d failed, %d cancelled; in-flight: %d resumable; %s\n",
		st.Done, st.Failed, st.Cancelled, resumable, durable)
}
