// Command predfleet is the fleet aggregation service: predator agents across
// many machines stream findings, metric snapshots, and trace segments here,
// and the service answers fleet-wide questions — which projects regressed,
// which cache lines are hottest across the fleet, how did this run compare
// to the last one.
//
//	predfleet -addr :9177 -store /var/lib/predfleet -tokens team-a=s3cret
//	predator -workload mysql -fleet-addr host:9177 -fleet-token s3cret
//	predtop -fleet host:9177 -token s3cret
//
// Ingestion is token-authenticated and per-tenant rate limited; the findings
// store is an append-only JSONL segment log that survives crashes (a salvage
// scan skips torn or corrupt lines on restart, and acknowledged runs are
// fsynced before the ack leaves the server).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"predator/internal/eval"
	"predator/internal/fleet"
	"predator/internal/fleet/tsdb"
	"predator/internal/httpsrv"
	"predator/internal/obs"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9177", "listen address (port 0 picks a free port)")
		dir     = flag.String("store", "predfleet-data", "findings store directory (append-only JSONL segments)")
		tokens  = flag.String("tokens", "", "comma-separated tenant=token pairs admitted to the API")
		anon    = flag.String("allow-anonymous", "", "admit unauthenticated requests as this tenant (local development only)")
		rate    = flag.Float64("rate", fleet.DefaultRate, "per-tenant ingestion rate limit (requests/second)")
		burst   = flag.Int("burst", fleet.DefaultBurst, "per-tenant ingestion burst size")
		maxBody = flag.Int64("max-body", fleet.DefaultMaxBody, "largest accepted ingestion body in bytes")
		nosync  = flag.Bool("no-sync", false, "skip fsync on findings appends (faster, loses the durability guarantee)")
		retain  = flag.Int("retain-segments", 0, "keep at most N store segments, pruning the oldest fully-acked ones at rotation (0: keep everything)")
		ttl     = flag.Duration("agent-ttl", fleet.DefaultAgentTTL, "metrics silence after which an agent alerts and leaves the hotlines aggregate")
		baseFn  = flag.String("bench-baseline", "", "pinned benchmark baseline JSON; runs regressing beyond tolerance against it raise slowdown alerts (default: each project's previous bench run)")
		tol     = flag.Float64("bench-tolerance", 0, "slowdown-ratio drift tolerated before a regression alert (0: the CI gate default)")
		version = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("predfleet " + obs.GetBuildInfo().String())
		return
	}

	tokenMap, err := parseTokens(*tokens)
	if err != nil {
		fatal(err)
	}
	if len(tokenMap) == 0 && *anon == "" {
		// A server nobody can talk to is a misconfiguration, not a default.
		fatal(fmt.Errorf("no -tokens and no -allow-anonymous: every request would be rejected"))
	}

	var baseline *eval.BenchDoc
	if *baseFn != "" {
		doc, err := eval.ReadBenchFile(*baseFn)
		if err != nil {
			fatal(fmt.Errorf("-bench-baseline: %w", err))
		}
		baseline = doc
	}

	// The collector observes every accepted record — the startup salvage scan
	// replays history through it, so the time-series rings rebuild from the
	// JSONL segments without a WAL of their own.
	collector := fleet.NewCollector(tsdb.New(tsdb.Config{}))
	store, err := fleet.OpenStore(fleet.StoreConfig{
		Dir:            *dir,
		NoSync:         *nosync,
		RetainSegments: *retain,
		Observer:       collector,
	})
	if err != nil {
		fatal(err)
	}
	rec := store.Recovery()
	if rec.Segments > 0 {
		fmt.Printf("store: recovered %d record(s) from %d segment(s) in %s", rec.Records, rec.Segments, *dir)
		if !rec.Clean() {
			fmt.Printf("  [salvaged: %d corrupt line(s), %d truncated tail(s)]", rec.CorruptLines, rec.TruncatedTails)
		}
		fmt.Println()
	}

	reg := obs.NewRegistry()
	build := obs.RegisterBuildInfo(reg, "predfleet")
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Store:          store,
		Tokens:         tokenMap,
		AllowAnonymous: *anon,
		Rate:           *rate,
		Burst:          *burst,
		MaxBody:        *maxBody,
		Registry:       reg,
		Build:          build,
		TSDB:           collector.DB(),
		Alerts: fleet.AlertConfig{
			AgentTTL:  *ttl,
			Tolerance: *tol,
			Baseline:  baseline,
		},
	})
	if err != nil {
		fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound, err := srv.Start(ctx, *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("predfleet: serving on http://%s (store %s, %d tenant token(s))\n", bound, *dir, len(tokenMap))
	fmt.Printf("predfleet: dashboard at http://%s/dash\n", bound)

	// Serve until interrupted, then drain in-flight requests and close the
	// store so the final segment ends on a clean line.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("predfleet: shutting down")
	sctx, scancel := context.WithTimeout(context.Background(), httpsrv.ShutdownGrace)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "predfleet: shutdown: %v\n", err)
	}
	if err := store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "predfleet: closing store: %v\n", err)
	}
}

// parseTokens decodes -tokens: comma-separated tenant=token pairs, mapped to
// the token -> tenant form the server wants.
func parseTokens(s string) (map[string]string, error) {
	out := map[string]string{}
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		tenant, token, ok := strings.Cut(pair, "=")
		if !ok || tenant == "" || token == "" {
			return nil, fmt.Errorf("bad -tokens entry %q (want tenant=token)", pair)
		}
		if prev, dup := out[token]; dup && prev != tenant {
			return nil, fmt.Errorf("token for tenant %q already assigned to %q", tenant, prev)
		}
		out[token] = tenant
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "predfleet: %v\n", err)
	os.Exit(1)
}
