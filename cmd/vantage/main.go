// Command vantage is a border-DNS vantage point: a UDP DNS server that
// local caching/forwarding DNS servers can use as their upstream. It
// answers A queries from a static registered-domain zone (everything else
// gets NXDOMAIN, as a sinkholed DGA pool would) and appends every received
// query to an observable dataset (JSON lines) that cmd/botmeter can analyse
// — the live-deployment counterpart of the simulator's Border server.
//
// The observable dataset is written crash-safely: records are flushed on an
// interval (default 1s) and every N records so a tailing consumer
// (botmeter -lenient -in obs.jsonl) sees a live capture, each underlying
// write is a whole number of JSONL lines, write errors surface immediately
// rather than at shutdown, and on startup any torn final line left by a
// previous crash is truncated away so appends resume on a clean boundary.
// The -chaos flag injects deterministic faults (loss, duplication, latency,
// SERVFAIL bursts, blackouts) for resilience testing of downstreams.
//
// There is one serve loop (worker.go): a worker goroutine per SO_REUSEPORT
// socket, allocation-free in steady state. Checkpointing (-checkpoint-dir),
// crash injection (-crash) and chaos (-chaos) all run on it, so the
// crash-safe configuration serves at the speed of the bare one.
//
// Usage:
//
//	vantage -listen 127.0.0.1:5353 -zone registered.txt -observed obs.jsonl
//	# ... point local resolvers' forwarders at it, then later:
//	botmeter -family newgoz -in obs.jsonl -format jsonl
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/faults"
	"botmeter/internal/netx"
	"botmeter/internal/obs"
	"botmeter/internal/obs/series"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// Metric families exported by the vantage daemon.
const (
	metricQueries     = "vantage_queries_total"
	metricObserved    = "vantage_observed_records_total"
	metricWriteErrors = "vantage_observed_write_errors_total"
	metricStickyError = "vantage_observed_sticky_error"
	metricObserveErrs = "vantage_engine_observe_errors_total"
	metricSendErrors  = "vantage_send_errors_total"
	metricZoneSize    = "vantage_zone_domains"
)

// instrument exports the vantage's series on reg. All but the query count
// are callbacks over the tallies and writers the sink and its workers keep,
// so call it after attach.
func (s *sink) instrument(reg *obs.Registry) {
	reg.Help(metricQueries, "Datagrams parsed as DNS queries.")
	reg.Help(metricObserved, "Observations appended to the observable dataset.")
	reg.Help(metricWriteErrors, "Observation appends that failed to persist.")
	reg.Help(metricStickyError, "1 while the observed-dataset writer holds a sticky error (healthz degrades).")
	reg.Help(metricObserveErrs, "Observations the live engine refused.")
	reg.Help(metricSendErrors, "Responses the client socket refused to send.")
	reg.Help(metricZoneSize, "Registered domains loaded from the zone file.")
	s.queries = reg.Counter(metricQueries)
	reg.GaugeFunc(metricStickyError, func() float64 {
		if s.health() != nil {
			return 1
		}
		return 0
	})
	reg.CounterFunc(metricObserved, func() uint64 {
		var n uint64
		for _, w := range s.workers {
			w.mu.Lock()
			n += w.consumed
			w.mu.Unlock()
		}
		return n
	})
	reg.CounterFunc(metricWriteErrors, s.writeErrs.Load)
	reg.CounterFunc(metricObserveErrs, s.observeErrs.Load)
	reg.CounterFunc(metricSendErrors, s.sendErrs.Load)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vantage:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw *os.File) error {
	fs := flag.NewFlagSet("vantage", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:5353", "UDP address to serve DNS on")
	zonePath := fs.String("zone", "", "file of registered domains (one per line, optional 'domain ip')")
	observedPath := fs.String("observed", "observed.jsonl", "observable dataset output (JSON lines)")
	ttl := fs.Uint("ttl", 3600, "TTL for positive answers (seconds)")
	flushInterval := fs.Duration("flush-interval", time.Second, "flush buffered observations this often (negative disables)")
	flushEvery := fs.Int("flush-every", 64, "flush after this many buffered observations")
	fsyncInterval := fs.Duration("fsync-interval", 0, "fsync the observed dataset at most this often (0 disables)")
	chaosSpec := fs.String("chaos", "", "inject faults, e.g. loss=0.2,dup=0.01,servfail=0.05,delay=5ms,blackout=10s+2s")
	chaosSeed := fs.Uint64("chaos-seed", 1, "seed for deterministic fault injection")
	obsAddr := fs.String("obs-addr", "", "HTTP diagnostics address serving /metrics, /healthz, /debug/vars and /debug/pprof (empty disables)")
	liveFamily := fs.String("live-estimate", "", "maintain a live landscape for this DGA family in-process; served as JSON at /landscape on -obs-addr")
	liveSeed := fs.Uint64("live-seed", 1, "DGA seed reconstructing the -live-estimate family's pools")
	vantageID := fs.String("vantage-id", "", "with -live-estimate: name this vantage point; exported state carries the identity so a landscape-server can federate it via /state")
	checkpointDir := fs.String("checkpoint-dir", "", "with -live-estimate: checkpoint the engine state here and recover it (checkpoint restore + replay of the observed dataset) on startup")
	checkpointInterval := fs.Duration("checkpoint-interval", 30*time.Second, "with -checkpoint-dir: wall-clock checkpoint cadence (0 disables the time trigger)")
	checkpointEvery := fs.Uint64("checkpoint-every", 0, "with -checkpoint-dir: also checkpoint at least every N observed records; each of L listeners trips at N/L of its own (0 disables the count trigger)")
	crashSpec := fs.String("crash", "", "deterministic crash injection for recovery testing, e.g. records=500 or point=checkpoint-write:1")
	sloFreshness := fs.Duration("slo-freshness", 0, "with -live-estimate: degrade /healthz when any shard's watermark lags the wall clock by more than this (0 disables)")
	sloLoss := fs.Float64("slo-loss", 0, "with -live-estimate: degrade /healthz when the lossy-ingest ratio (late drops + reorder evictions over ingested) exceeds this (0 disables)")
	sloDisagree := fs.Float64("slo-disagreement", 0, "with -live-estimate: degrade /healthz when the estimators' relative spread exceeds this (0 disables)")
	historyInterval := fs.Duration("history-interval", 10*time.Second, "with -live-estimate: landscape history sampling cadence")
	historyPoints := fs.Int("history-points", 512, "with -live-estimate: points kept per series and in /landscape/history")
	historyStep := fs.Duration("history-step", time.Second, "with -live-estimate: time-series downsampling step for /debug/series")
	listeners := fs.Int("listeners", 0, "SO_REUSEPORT listener sockets, one serve worker each (0 = one per CPU, capped at 8)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "logfmt", "log encoding: logfmt or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(logw, level, *logFormat, "vantage")
	if err != nil {
		return err
	}
	rates, err := faults.ParseSpec(*chaosSpec)
	if err != nil {
		return err
	}
	crasher, err := parseCrash(*crashSpec)
	if err != nil {
		return err
	}
	if *checkpointDir != "" && *liveFamily == "" {
		return fmt.Errorf("-checkpoint-dir needs -live-estimate (there is no engine state to checkpoint)")
	}
	var spec dga.Spec
	if *liveFamily != "" {
		if spec, err = dga.Lookup(*liveFamily); err != nil {
			return err
		}
	}
	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
	}

	zone, err := loadZone(*zonePath)
	if err != nil {
		return err
	}
	reg.Gauge(metricZoneSize).Set(float64(len(zone)))
	// Crash recovery, part 1: drop a torn final line from a previous
	// unclean shutdown so this run appends on a line boundary — and so the
	// checkpoint replay below reads only whole records.
	if removed, err := trace.TruncateTornTail(*observedPath); err != nil {
		return fmt.Errorf("recovering %s: %w", *observedPath, err)
	} else if removed > 0 {
		logger.Warn("recovered torn observed dataset", "path", *observedPath, "truncated_bytes", removed)
	}
	out, err := os.OpenFile(*observedPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer out.Close()

	// Live estimation: every observation is ALSO fed to the online
	// landscape engine, so /landscape serves the evolving chart without a
	// separate botmeter pass over the dataset. With -checkpoint-dir, the
	// engine state survives crashes: recovery restores the newest good
	// checkpoint (falling back past torn/corrupt generations), replays the
	// observed dataset from the checkpoint's record offset — exactly-once:
	// each record's effect is applied either by the restored state or by
	// the replay, never both — and quiesces the reorder buffers so
	// /landscape immediately reflects everything durable.
	var est *stream.Engine
	var consumed uint64 // well-formed records durably in the observed dataset
	var recovery string
	if *liveFamily != "" {
		streamCfg := stream.Config{
			Core:     core.Config{Family: spec, Seed: *liveSeed},
			Vantage:  *vantageID,
			Registry: reg,
		}
		dga.ExportPoolMetrics(reg)
		if *checkpointDir == "" {
			if est, err = stream.New(streamCfg); err != nil {
				return err
			}
		} else {
			var info stream.RecoveryInfo
			est, info, err = stream.RestoreLatest(streamCfg, *checkpointDir, *observedPath)
			if err != nil {
				return err
			}
			switch {
			case info.Found:
				recovery = info.String()
				logger.Info("restored checkpoint",
					"generation", info.Gen, "records", info.Records, "corrupt_skipped", info.CorruptSkipped)
			case info.Stale:
				logger.Warn("checkpoint is newer than the observed dataset (rotated or truncated?); starting fresh",
					"generation", info.Gen)
			case info.CorruptSkipped > 0:
				logger.Warn("no loadable checkpoint; replaying the observed dataset from its start",
					"skipped", info.CorruptSkipped, "newest_err", info.SkipErr)
			}
			res, err := est.FollowFile(ctx, *observedPath, stream.FollowOptions{Lenient: true, SkipRecords: info.Records})
			if err != nil {
				return fmt.Errorf("replaying %s: %w", *observedPath, err)
			}
			consumed = uint64(res.Records)
			if err := est.Quiesce(); err != nil {
				return err
			}
			if consumed > info.Records {
				logger.Info("replayed observed dataset", "records", consumed-info.Records, "resumed_at", info.Records)
			}
		}
		logger.Info("live estimation enabled",
			"family", spec.Name, "estimator", est.EstimatorName(), "seed", *liveSeed)
	}

	conns, reuseport, err := netx.ListenUDP(ctx, *listen, netx.SocketCount(*listeners))
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if rates.Enabled() {
		conns = faults.WrapPacketConns(conns, *chaosSeed, rates, reg)
		logger.Warn("chaos enabled", "rates", rates.String(), "seed", *chaosSeed)
	}
	logger.Info("serving",
		"listen", conns[0].LocalAddr().String(),
		"listeners", len(conns),
		"reuseport", reuseport,
		"zone_domains", len(zone),
		"observed", *observedPath)

	srv := &sink{
		zone:     buildZoneAnswers(zone),
		ttl:      uint32(*ttl),
		est:      est,
		crash:    crasher,
		consumed: consumed,
		log:      logger,
	}
	if *checkpointDir != "" {
		srv.ck, err = stream.NewCheckpointer(stream.CheckpointConfig{
			Dir:          *checkpointDir,
			Interval:     *checkpointInterval,
			EveryRecords: *checkpointEvery,
			Registry:     reg,
			Crash:        crasher,
			// Flush every worker's batch before the state export, so the
			// durable file prefix covers the cut and a later replay finds
			// every record the checkpoint claims to have consumed. A sticky
			// write error blocks checkpointing: a checkpoint ahead of the
			// durable file would double-apply records on resume.
			PreSync: srv.flush,
			Source:  *observedPath,
		})
		if err != nil {
			return err
		}
		logger.Info("checkpointing enabled",
			"dir", *checkpointDir, "interval", checkpointInterval.String(), "every_records", *checkpointEvery)
	}
	srv.attach(conns, out, trace.SafeWriterConfig{
		FlushInterval: *flushInterval,
		FlushEvery:    *flushEvery,
		FsyncInterval: *fsyncInterval,
	})
	if reg != nil {
		srv.instrument(reg)
	}
	// The Landscape Observatory samples the live engine into a bounded
	// time-series store, keeps the /landscape/history ring and evaluates the
	// SLO rules that degrade /healthz (DESIGN.md §16).
	var obsy *stream.Observatory
	if est != nil {
		obsy, err = stream.NewObservatory(stream.ObservatoryConfig{
			Engine:          est,
			Checkpoints:     srv.ck,
			Store:           series.NewStore(series.Config{Capacity: *historyPoints, Step: *historyStep}),
			Registry:        reg,
			Logger:          logger,
			HistoryInterval: *historyInterval,
			HistoryPoints:   *historyPoints,
			FreshnessSLO:    *sloFreshness,
			LossRateSLO:     *sloLoss,
			DisagreementSLO: *sloDisagree,
		})
		if err != nil {
			return err
		}
		obsy.Start()
		defer obsy.Stop()
		if obsy.Rules().Len() > 0 {
			logger.Info("slo rules armed",
				"freshness", sloFreshness.String(), "loss", *sloLoss, "disagreement", *sloDisagree)
		}
	}
	if *obsAddr != "" {
		muxCfg := obs.MuxConfig{Registry: reg, Health: srv.health}
		if est != nil {
			muxCfg.Landscape = est.LandscapeJSON
			// /state serves the exported sufficient statistics as a
			// checkpoint frame, the pull side of federation: a
			// landscape-server fetches this from every vantage and merges.
			muxCfg.State = func() ([]byte, error) {
				st, err := est.ExportState()
				if err != nil {
					return nil, err
				}
				return stream.EncodeCheckpoint(st)
			}
		}
		if obsy != nil {
			muxCfg.Series = obsy.Store()
			muxCfg.History = obsy.HistoryJSON
			// /healthz degrades on a sticky writer error OR a firing SLO rule.
			muxCfg.Health = func() error {
				if err := srv.health(); err != nil {
					return err
				}
				return obsy.Health()
			}
		}
		muxCfg.Status = func() string {
			var lines []string
			if recovery != "" {
				lines = append(lines, recovery)
			}
			if srv.ck != nil {
				st := srv.ck.Stats()
				if st.Written > 0 {
					lines = append(lines, fmt.Sprintf("checkpoint generation %d at record %d (%d written, %d skipped, %d errors)",
						st.Gen, st.LastRecords, st.Written, st.Skipped, st.Errors))
				}
			}
			return strings.Join(lines, "\n")
		}
		diag, err := obs.StartHTTP(*obsAddr, obs.NewMux(muxCfg))
		if err != nil {
			return err
		}
		defer diag.Close()
		logger.Info("diagnostics listening", "obs_addr", diag.Addr())
	}
	done := make(chan error, 1)
	go func() { done <- srv.serve() }()
	select {
	case <-ctx.Done():
		for _, c := range conns {
			c.Close()
		}
		err = <-done
	case err = <-done:
		if err != nil && ctx.Err() == nil {
			return err
		}
	}
	for i, w := range srv.workers {
		if w.inj != nil {
			logger.Info("chaos counters", "socket", i, "counters", w.inj.Counters().String())
		}
	}
	if srv.ck != nil {
		// Final checkpoint at the clean-shutdown cut, so the next start
		// restores instead of replaying the whole dataset. Must precede
		// est.Close(): a closed engine cannot export.
		if err := srv.ck.Checkpoint(est, srv.consumed); err != nil {
			logger.Error("final checkpoint failed", "err", err)
		}
	}
	if est != nil {
		// The workers have returned, so no Observe is in flight.
		land, err := est.Close()
		if err != nil {
			logger.Error("closing live estimation", "err", err)
		} else {
			stats := est.Stats()
			logger.Info("final live landscape",
				"servers", len(land.Servers), "total", fmt.Sprintf("%.1f", land.Total),
				"matched", stats.Matched, "late_dropped", stats.DroppedLate)
		}
	}
	return err
}

// sink is what the socket workers share: the zone, the live engine, the
// checkpointer and the failure tallies.
type sink struct {
	zone    map[string]zoneAnswer // precomputed wire answers
	ttl     uint32
	est     *stream.Engine
	ck      *stream.Checkpointer
	crash   *faults.Crasher
	log     *slog.Logger
	queries *obs.Counter // nil unless instrumented
	workers []*vantageWorker

	// consumed counts well-formed records durably in the observed dataset:
	// those found at start-up, plus each worker's own once serve has seen it
	// exit. While the workers run, a cut adds their live counts to it.
	consumed uint64

	cutting     atomic.Bool // a worker is taking the checkpoint cut
	writeErrs   atomic.Uint64
	observeErrs atomic.Uint64
	sendErrs    atomic.Uint64
	ckErrs      atomic.Uint64
}

// health implements the /healthz probe: unhealthy while any worker's
// observed-dataset writer holds a sticky error — the DNS plane still answers,
// but the vantage point is no longer recording, which is this daemon's job.
func (s *sink) health() error {
	for i, w := range s.workers {
		if err := w.out.Err(); err != nil {
			return fmt.Errorf("observed dataset writer %d: %w", i, err)
		}
	}
	return nil
}

// flush pushes every worker's batch to the dataset file and reports the
// first writer that cannot (its sticky error included).
func (s *sink) flush() error {
	for _, w := range s.workers {
		if err := w.out.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// report accounts one occurrence of a recurring failure: a failing disk or
// engine must not take the DNS plane down, but it must be loud — log the
// first few, keep counting.
func (s *sink) report(n *atomic.Uint64, msg string, err error) {
	if c := n.Add(1); c <= 3 {
		s.log.Error(msg, "count", c, "err", err)
	}
}

// checkpoint takes the consistent cut (DESIGN.md §15) for worker w, whose
// trigger tripped at now. Holding every worker's mutex means no record is
// between its dataset append and its Engine.Observe, and none can start; the
// checkpointer then flushes the writers (PreSync) and exports the state, and
// what it stamps as Source.Records — start-up records plus every worker's
// count — is the dataset's line count. Only one worker coordinates at a
// time: the loser of the CAS goes back to serving and blocks on its own
// mutex at its next record until the cut is done. Encoding and disk I/O
// happen after the workers are released.
func (s *sink) checkpoint(w *vantageWorker, now time.Time) {
	if !s.cutting.CompareAndSwap(false, true) {
		return
	}
	defer s.cutting.Store(false)
	for _, o := range s.workers {
		o.mu.Lock()
	}
	defer func() {
		for _, o := range s.workers {
			o.mu.Unlock()
		}
	}()
	// A cut that finished while this worker was on its way here re-armed its
	// trigger; taking another right behind it would only double the I/O.
	if !w.trig.Due(now) {
		return
	}
	records := s.consumed
	for _, o := range s.workers {
		records += o.consumed
		o.trig.Rearm(now)
	}
	if err := s.ck.Try(s.est, records); err != nil {
		s.report(&s.ckErrs, "checkpoint error", err)
	}
}

// parseCrash builds the crash injector from the -crash flag (nil when
// disabled; nil crashers are safe to call).
func parseCrash(spec string) (*faults.Crasher, error) {
	s, err := faults.ParseCrashSpec(spec)
	if err != nil {
		return nil, err
	}
	return faults.NewCrasher(s), nil
}

// loadZone reads "domain [ip]" lines; a missing IP defaults to 192.0.2.1
// (TEST-NET-1), the convention for sinkholes.
func loadZone(path string) (map[string]net.IP, error) {
	zone := make(map[string]net.IP)
	if path == "" {
		return zone, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		ip := net.ParseIP("192.0.2.1")
		if len(fields) > 1 {
			if ip = net.ParseIP(fields[1]); ip == nil {
				return nil, fmt.Errorf("zone %s:%d: bad IP %q", path, lineNo, fields[1])
			}
		}
		zone[strings.ToLower(strings.TrimSuffix(fields[0], "."))] = ip
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return zone, nil
}
