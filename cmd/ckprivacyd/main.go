// Command ckprivacyd is the resident disclosure-auditing service: the
// library's O(|B|·k³) MaxDisclosure check, (c,k)-safety verdicts and
// lattice-search anonymization behind a JSON/HTTP API, with a dataset
// registry whose datasets each own one warm bucketization cache, shared
// by every request on the dataset, whose buckets keep their MINIMIZE1
// rows, so repeated checks on hot datasets skip cold-start entirely.
//
// Endpoints:
//
//	POST   /v1/datasets                register a table + hierarchies under a name
//	GET    /v1/datasets                list registered datasets
//	GET    /v1/datasets/{x}            describe one dataset (version + rows)
//	POST   /v1/datasets/{x}/rows       append rows; bumps the dataset version,
//	                                   patches warm caches incrementally
//	POST   /v1/datasets/{x}/releases   record a published generalization
//	GET    /v1/datasets/{x}/releases   sequential-release intersection audit
//	POST   /v1/disclosure              synchronous MaxDisclosure (optional witness)
//	POST   /v1/check                   synchronous privacy-criterion verdict
//	POST   /v1/estimate                Monte-Carlo posterior for a specific formula
//	POST   /v1/anonymize               submit an async lattice-search job (202)
//	GET    /v1/jobs/{id}               poll job status/result
//	DELETE /v1/jobs/{id}               cancel a queued or running job
//	GET    /v1/replication/datasets    replicable datasets (WAL coordinates)
//	GET    /v1/replication/{x}/snapshot  raw snapshot bytes (replication)
//	GET    /v1/replication/{x}/wal     committed WAL bytes from a cursor
//	GET    /v1/openapi.yaml            the OpenAPI 3 spec (docs/openapi.yaml)
//	GET    /healthz                    liveness
//	GET    /readyz                     readiness (503 until follower catch-up)
//	GET    /metrics                    Prometheus text format
//
// With -follow <leader-url> the daemon runs as a read replica: it
// bootstraps every dataset from the leader's snapshots, tails the
// leader's WAL continuously, rejects writes with 403 read_only, serves
// reads (optionally pinned to a historical version via ?version=), and
// reports replication lag on /metrics and /v1/datasets. A follower with
// -data-dir persists what it applies and resumes from its own store
// after a restart without re-fetching snapshots.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests finish, and queued anonymization jobs are
// drained (bounded by -drain-timeout, after which running jobs are
// cancelled cooperatively).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ckprivacy/internal/dataload"
	"ckprivacy/internal/replica"
	"ckprivacy/internal/server"
	"ckprivacy/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ckprivacyd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ckprivacyd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8344", "listen address")
		maxK          = fs.Int("max-k", 16, "largest background-knowledge bound k accepted per request")
		maxRows       = fs.Int("max-rows", 200000, "largest registered dataset in rows")
		maxDatasets   = fs.Int("max-datasets", 64, "registry capacity")
		maxConcurrent = fs.Int("max-concurrent", 0, "global concurrency gate; 0 means one per CPU core")
		gateWait      = fs.Duration("gate-wait", 2*time.Second, "max wait on the gate before shedding with 503")
		jobWorkers    = fs.Int("job-workers", 2, "concurrent background anonymization jobs")
		jobQueue      = fs.Int("job-queue", 16, "bounded pending-job queue size")
		searchWorkers = fs.Int("search-workers", 1, "lattice worker budget per search (<= 0 means one per CPU core)")
		maxReleases   = fs.Int("max-releases", 16, "retained recorded releases per dataset for the sequential-release audit")
		preload       = fs.String("preload", "", "comma-separated built-in datasets to register at boot (adult, hospital)")
		preloadN      = fs.Int("preload-n", 0, "synthetic row count for a preloaded adult dataset (0 means the paper's 45222)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		dataDir       = fs.String("data-dir", "", "durable store directory: datasets persist as columnar snapshots + append WALs and are recovered at boot (empty disables persistence)")
		walFsync      = fs.Bool("wal-fsync", true, "fsync the WAL on every committed append/release (requires -data-dir)")
		compactWALMB  = fs.Int("compact-wal-mb", 64, "WAL size, in MiB, past which a dataset's log is compacted into a fresh snapshot")
		follow        = fs.String("follow", "", "run as a read replica of the leader daemon at this base URL (e.g. http://leader:8344); writes are rejected with 403 read_only")
		followPoll    = fs.Duration("follow-poll", 2*time.Second, "dataset-discovery poll interval in follower mode")
		followWaitMS  = fs.Int("follow-wait-ms", 10000, "long-poll budget per WAL fetch in follower mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	bootBegin := time.Now()

	var mgr *store.Manager
	if *dataDir != "" {
		var err error
		mgr, err = store.Open(store.Options{
			Dir:          *dataDir,
			Fsync:        *walFsync,
			CompactBytes: int64(*compactWALMB) << 20,
		})
		if err != nil {
			return fmt.Errorf("opening data dir %q: %w", *dataDir, err)
		}
	}

	if *follow != "" && *preload != "" {
		return fmt.Errorf("-preload and -follow are mutually exclusive: a follower's datasets come from the leader")
	}

	srv := server.New(server.Config{
		ReadOnly:      *follow != "",
		Store:         mgr,
		MaxK:          *maxK,
		MaxRows:       *maxRows,
		MaxDatasets:   *maxDatasets,
		MaxConcurrent: *maxConcurrent,
		GateWait:      *gateWait,
		JobWorkers:    *jobWorkers,
		JobQueueSize:  *jobQueue,
		SearchWorkers: *searchWorkers,
		MaxReleases:   *maxReleases,
	})
	// Recover persisted datasets before preloading, so a preload name that
	// already exists on disk comes back from its snapshot (with appended
	// rows and release history) instead of a cold rebuild.
	stats, err := srv.RecoverAll()
	if err != nil {
		return fmt.Errorf("recovering data dir %q: %w", *dataDir, err)
	}
	if stats.Datasets > 0 {
		log.Printf("recovered %d dataset(s) from %s (%d wal records replayed) in %s",
			stats.Datasets, *dataDir, stats.Replayed, stats.Elapsed.Round(time.Millisecond))
	}
	for _, name := range strings.Split(*preload, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, err := dataload.Builtin(name, *preloadN, 1)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		err = srv.Register(name, b)
		if errors.Is(err, server.ErrAlreadyRegistered) && stats.Datasets > 0 {
			log.Printf("preload %q: already recovered from %s", name, *dataDir)
			continue
		}
		if err != nil {
			return fmt.Errorf("preload %q: %w", name, err)
		}
		log.Printf("preloaded dataset %q (%d rows)", name, b.Table.Len())
	}
	srv.SetBootDuration(time.Since(bootBegin))

	// Follower mode: start the replication loop alongside the listener. It
	// bootstraps/resumes every leader dataset, applies the WAL stream, and
	// flips /readyz to 200 once initial catch-up completes.
	var follower *replica.Follower
	if *follow != "" {
		var err error
		follower, err = replica.New(replica.Options{
			LeaderURL:    strings.TrimRight(*follow, "/"),
			Server:       srv,
			PollInterval: *followPoll,
			WaitMS:       *followWaitMS,
		})
		if err != nil {
			return err
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Bound body reads so slow-loris clients cannot hold connections
		// (or, worse, compute-gate slots) open indefinitely. No
		// WriteTimeout: synchronous disclosure on a large dataset may
		// legitimately compute for longer than any fixed bound.
		ReadTimeout: 30 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("ckprivacyd listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	replDone := make(chan struct{})
	if follower != nil {
		go func() {
			defer close(replDone)
			log.Printf("following leader at %s", *follow)
			_ = follower.Run(ctx)
		}()
	} else {
		close(replDone)
	}

	select {
	case err := <-errc:
		// The listener died before any signal (e.g. a bad address); the
		// job workers still need stopping.
		stopCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(stopCtx)
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, finish in-flight requests, then let
	// queued/running jobs complete (cancelled cooperatively past the
	// deadline).
	log.Printf("shutting down: draining requests and jobs (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	httpErr := httpSrv.Shutdown(drainCtx)
	jobErr := srv.Shutdown(drainCtx)
	select {
	case <-replDone:
	case <-drainCtx.Done():
	}
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	if jobErr != nil {
		return fmt.Errorf("job drain: %w", jobErr)
	}
	log.Printf("ckprivacyd stopped cleanly")
	return nil
}
