// Command help runs the reproduced system interactively on the paper's
// demo world. The screen renders as text after every command; input is
// the small command language of internal/repl, a textual stand-in for the
// mouse (type "help" at the prompt for the list).
//
// Flags: -w/-h set the screen size; -session replays the paper's session
// and exits; -boot prints the boot screen and exits; -listen serves the
// namespace over TCP so remote processes can drive the UI through
// /mnt/help; -debug serves expvar (the stats registry under "help") and
// net/http/pprof on an HTTP address; -journal keeps a write-ahead log of
// the session in a directory, -recover restores the session from it, and
// -journal-fsync picks the durability/throughput trade-off.
//
// -daemon turns the process into a multi-session server: one listener
// (-listen, required) multiplexes independent sessions spawned on first
// attach, each with its own namespace and (under -journal) its own
// lockfile-guarded journal directory; -max-sessions and -session-ttl
// bound the table and reap idle sessions. The overload budgets
// -max-bytes, -max-session-bytes, -max-total-procs, and -max-waiters
// bound resident memory, live commands, and parked waiters; past them
// the daemon refuses with a typed busy error carrying a -retry-after
// hint instead of degrading everyone. SIGINT/SIGTERM drains
// gracefully: attaches stop, commands are killed, every journal is
// checkpointed and flushed.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/session"
	"repro/internal/sessiond"
	"repro/internal/srvnet"
	"repro/internal/world"
)

func main() {
	width := flag.Int("w", 120, "screen width in cells")
	height := flag.Int("h", 50, "screen height in cells")
	runSession := flag.Bool("session", false, "replay the paper's debugging session and exit")
	bootOnly := flag.Bool("boot", false, "print the boot screen and exit")
	listen := flag.String("listen", "", "serve the namespace (including /mnt/help) on this TCP address")
	remote := flag.String("remote", "", "attach a remote namespace at this TCP address (repl fetch)")
	debug := flag.String("debug", "", "serve expvar and pprof on this HTTP address")
	journalDir := flag.String("journal", "", "keep a crash-safe session journal in this directory")
	recoverFlag := flag.Bool("recover", false, "restore the session from the -journal directory before starting")
	journalFsync := flag.String("journal-fsync", "batch", "journal fsync policy: batch, always, or never")
	daemon := flag.Bool("daemon", false, "host many sessions behind -listen, one per attach handshake")
	maxSessions := flag.Int("max-sessions", sessiond.DefaultMaxSessions, "daemon: bound on live sessions")
	sessionTTL := flag.Duration("session-ttl", 0, "daemon: reap sessions idle this long (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "bound on the graceful drain after SIGINT/SIGTERM")
	maxBytes := flag.Int64("max-bytes", 0, "daemon: total resident buffer bytes across sessions (0 unbounded)")
	maxSessionBytes := flag.Int64("max-session-bytes", 0, "daemon: resident buffer bytes per session (0 unbounded)")
	maxTotalProcs := flag.Int("max-total-procs", 0, "daemon: live commands across sessions (0 unbounded)")
	maxWaiters := flag.Int("max-waiters", srvnet.DefaultMaxWaiters, "daemon: parked event/readwait waiters across connections (-1 unbounded)")
	retryAfter := flag.Duration("retry-after", 0, "daemon: retry hint stamped on busy refusals (0: default)")
	maxResident := flag.Int64("max-resident", 0, "paged-text threshold and per-window residency cap in bytes (0: 8 MiB default, negative disables paging)")
	flag.Parse()

	if *recoverFlag && *journalDir == "" {
		exitOn(fmt.Errorf("-recover requires -journal <dir>"))
	}
	if *daemon {
		exitOn(runDaemon(daemonOpts{
			width:           *width,
			height:          *height,
			listen:          *listen,
			debug:           *debug,
			journalRoot:     *journalDir,
			fsync:           *journalFsync,
			maxSessions:     *maxSessions,
			ttl:             *sessionTTL,
			drainTimeout:    *drainTimeout,
			maxBytes:        *maxBytes,
			maxSessionBytes: *maxSessionBytes,
			maxTotalProcs:   *maxTotalProcs,
			maxWaiters:      *maxWaiters,
			retryAfter:      *retryAfter,
			maxResident:     *maxResident,
		}))
		return
	}

	if *runSession {
		s, err := session.New(*width, *height)
		exitOn(err)
		exitOn(s.RunDebugSession())
		for _, st := range s.Steps {
			fmt.Printf("==== %s: %s ====\n%s\n", st.Name, st.Desc, st.Screen)
		}
		m := s.Last().Metrics
		fmt.Printf("session total: %d presses, %d keystrokes, %d cells travel\n",
			m.Presses, m.Keystrokes, m.Travel)
		return
	}

	w, err := world.Build(*width, *height)
	exitOn(err)
	exitOn(w.Boot())
	if *maxResident != 0 {
		w.Help.SetLimits(core.Limits{MaxResident: *maxResident})
	}

	if *journalDir != "" {
		policy, err := journal.ParsePolicy(*journalFsync)
		exitOn(err)
		jfs, err := journal.DirFS(*journalDir)
		exitOn(err)
		if *recoverFlag {
			// Recovery runs before the journal is attached: replay must
			// not be re-journaled.
			res, err := core.RecoverSession(w.Help, jfs)
			exitOn(err)
			fmt.Fprintf(os.Stderr, "help: recovered session: checkpoint gen %d + %d ops in %v",
				res.CkptGen, res.Ops, res.Elapsed.Round(time.Microsecond))
			if res.Torn {
				fmt.Fprintf(os.Stderr, " (discarded torn tail: %s)", res.TornReason)
			}
			fmt.Fprintln(os.Stderr)
		}
		jw, err := journal.Open(jfs, journal.Config{Fsync: policy})
		exitOn(err)
		jw.OnError = func(err error) {
			w.Help.ReportFault("journal (degraded)", err)
		}
		w.Help.AttachJournal(jw, 0)
		defer jw.Close()
		// A SIGINT/SIGTERM must not lose the WAL tail: checkpoint and
		// flush before exiting, the same guarantee the daemon's drain
		// gives every session.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			if err := w.Help.SyncJournal(); err != nil {
				fmt.Fprintf(os.Stderr, "help: journal flush on exit: %v\n", err)
				os.Exit(1)
			}
			jw.Close()
			os.Exit(0)
		}()
	}

	fmt.Print(w.Help.Screen().String())

	if *debug != "" {
		// The same registry /mnt/help/stats serves, as expvar JSON under
		// "help", plus the stock net/http/pprof endpoints.
		reg := w.Help.Obs
		expvar.Publish("help", expvar.Func(func() any { return reg.StatsMap() }))
		dl, err := net.Listen("tcp", *debug)
		exitOn(err)
		fmt.Fprintf(os.Stderr, "help: debug (expvar, pprof) served on http://%s/debug/\n", dl.Addr())
		go http.Serve(dl, nil)
	}

	if *listen != "" {
		// Export the namespace: remote processes drive the UI through
		// /mnt/help, the paper's multi-machine Plan 9 arrangement.
		l, err := net.Listen("tcp", *listen)
		exitOn(err)
		fmt.Fprintf(os.Stderr, "help: namespace served on %s\n", l.Addr())
		srv := srvnet.NewServer(w.FS)
		srv.Obs = w.Help.Obs
		go srv.Serve(l)
	}

	if *bootOnly {
		return
	}

	r := repl.New(w.Help, os.Stdout)
	if *remote != "" {
		// The paper's invisible call to the CPU server: a fault-tolerant,
		// pipelined connection to another machine's namespace.
		rc := srvnet.NewReconnectingClient(*remote)
		rc.Obs = w.Help.Obs
		defer rc.Close()
		r.Remote = rc
	}
	r.Run(os.Stdin)
}

// daemonOpts collects the -daemon flag set: lifecycle knobs plus the
// overload budgets (memory, commands, waiters, retry hint).
type daemonOpts struct {
	width, height   int
	listen, debug   string
	journalRoot     string
	fsync           string
	maxSessions     int
	ttl             time.Duration
	drainTimeout    time.Duration
	maxBytes        int64
	maxSessionBytes int64
	maxTotalProcs   int
	maxWaiters      int
	retryAfter      time.Duration
	maxResident     int64
}

// runDaemon hosts many sessions in one process: a world template is
// built once, sessions are stamped from it on first attach, and one
// mux listener serves them all. SIGINT/SIGTERM triggers a bounded
// graceful drain — stop attaches, kill live commands, checkpoint and
// flush every journal — before exit.
func runDaemon(o daemonOpts) error {
	listen, debug, drainTimeout := o.listen, o.debug, o.drainTimeout
	if listen == "" {
		return fmt.Errorf("-daemon requires -listen <addr>")
	}
	policy, err := journal.ParsePolicy(o.fsync)
	if err != nil {
		return err
	}
	tmpl, err := world.NewTemplate()
	if err != nil {
		return err
	}
	reg := obs.New()
	mgr := sessiond.NewManager(sessiond.Config{
		Width:           o.width,
		Height:          o.height,
		MaxSessions:     o.maxSessions,
		TTL:             o.ttl,
		JournalRoot:     o.journalRoot,
		Fsync:           policy,
		MaxBytes:        o.maxBytes,
		MaxSessionBytes: o.maxSessionBytes,
		MaxTotalProcs:   o.maxTotalProcs,
		MaxResident:     o.maxResident,
		RetryAfter:      o.retryAfter,
		Obs:             reg,
		Build: func(name string, w, h int) (*world.World, error) {
			return tmpl.NewSession(w, h)
		},
	})

	if debug != "" {
		expvar.Publish("helpd", expvar.Func(func() any { return reg.StatsMap() }))
		dl, err := net.Listen("tcp", debug)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "helpd: debug (expvar, pprof) served on http://%s/debug/\n", dl.Addr())
		go http.Serve(dl, nil)
	}

	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	srv := srvnet.NewMuxServer(mgr)
	srv.Obs = reg
	srv.MaxWaiters = o.maxWaiters
	srv.RetryAfter = o.retryAfter
	fmt.Fprintf(os.Stderr, "helpd: sessions served on %s\n", l.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "helpd: %v: draining (up to %v)\n", sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		// Stop the wire first so draining conns hear a typed error,
		// then retire every session.
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "helpd: connection drain: %v\n", err)
		}
		if err := mgr.Drain(ctx); err != nil {
			return fmt.Errorf("session drain: %w", err)
		}
		fmt.Fprintln(os.Stderr, "helpd: drained cleanly")
		return nil
	case err := <-serveErr:
		return err
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "help: %v\n", err)
		os.Exit(1)
	}
}
