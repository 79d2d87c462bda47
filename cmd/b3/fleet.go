// Fleet wiring for cmd/b3: the -serve coordinator, the -worker campaign
// runner, and the shared SIGINT/SIGTERM interrupt channel that gives every
// long-running mode a graceful, checkpointing shutdown.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"b3"
	"b3/internal/fleet"
)

// installInterrupt returns a channel closed at the first SIGINT/SIGTERM.
// Campaign modes wire it into campaign.Config.Interrupt (final checkpoint,
// then stop), the worker wires it into fleet.Worker.Interrupt (release
// the lease, then stop), and the coordinator closes its ledger. A second
// signal kills the process for when graceful takes too long.
func installInterrupt(stderr io.Writer) <-chan struct{} {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	interrupted := make(chan struct{})
	go func() {
		s := <-sigs
		fmt.Fprintf(stderr, "b3: %v: stopping gracefully — checkpointing (signal again to kill)\n", s)
		close(interrupted)
		s = <-sigs
		fmt.Fprintf(stderr, "b3: %v again: killed\n", s)
		os.Exit(130)
	}()
	return interrupted
}

// interrupted ends an interrupted campaign mode after its partial summary
// printed: it points at the durable checkpoint and returns the
// conventional 128+SIGINT status so scripts can tell "stopped on request"
// from "failed".
func (c *cli) interrupted() int {
	if c.spec.CorpusDir != "" {
		fmt.Fprintf(c.stderr, "b3: interrupted; progress checkpointed under %s — rerun with -resume to continue\n", c.spec.CorpusDir)
	} else {
		fmt.Fprintln(c.stderr, "b3: interrupted (no -corpus, so nothing was persisted)")
	}
	return 130
}

// fleetLogf is the timestamped stderr logger for lease-transition lines —
// a coordinator or worker is a long-running service, so every transition
// is worth a line even without -v.
func (c *cli) fleetLogf() func(format string, args ...any) {
	return log.New(c.stderr, "b3: ", log.LstdFlags).Printf
}

// serveRefused are the campaign flags -serve refuses: a lease carries only
// the campaign Spec, so the fleet would silently run without them.
var serveRefused = []string{"max", "final-only", "shard", "resume", "prune-cap"}

// serveSpec is the Spec a -serve coordinator journals and leases out.
func (c *cli) serveSpec() fleet.Spec {
	spec := c.spec
	spec.NumShards = c.fleetShards
	return spec
}

// runServe runs the fleet coordinator: it owns the lease ledger under
// -corpus, serves the pull protocol on -serve, and on fleet completion
// prints the merged report (exactly what -merge would print) and exits.
// SIGINT closes the ledger cleanly; rerunning -serve with the same flags
// replays it and resumes the fleet where it stopped.
func (c *cli) runServe() int {
	for _, name := range serveRefused {
		if _, ok := c.given[name]; ok {
			return c.usage(fmt.Errorf("-serve does not pass -%s on to its workers (a lease carries only the campaign spec)", name))
		}
	}
	if c.spec.CorpusDir == "" {
		return c.fail(errors.New("-serve requires -corpus DIR (the ledger and shard corpora live there)"))
	}
	if c.spec.Profile == "" {
		return c.fail(errors.New("-serve requires -profile or -tier"))
	}
	spec := c.serveSpec()
	opts := fleet.Options{TTL: c.leaseTTL, Logf: c.fleetLogf()}
	if c.dedup {
		opts.KnownDBFor = b3.KnownBugDB
	}
	coord, err := fleet.NewCoordinator(spec, opts)
	if err != nil {
		return c.fail(err)
	}
	ln, err := net.Listen("tcp", c.serveAddr)
	if err != nil {
		coord.Close()
		return c.fail(err)
	}
	fmt.Fprintf(c.stderr, "b3: fleet coordinator on http://%s: %s over %d residue classes, corpus %s\n",
		ln.Addr(), spec.Profile, spec.NumShards, spec.CorpusDir)
	srv := &http.Server{Handler: coord}
	go srv.Serve(ln)

	select {
	case <-installInterrupt(c.stderr):
		srv.Close()
		coord.Close()
		fmt.Fprintln(c.stderr, "b3: coordinator stopped; the ledger is durable — rerun -serve with the same flags to resume the fleet")
		return 130
	case <-coord.DoneCh():
	}
	merged, err := coord.Wait()
	srv.Close()
	coord.Close()
	if err != nil {
		return c.fail(err)
	}
	fmt.Fprint(c.stdout, merged.Summary())
	return c.exitOnBrokenReorder(mergedStats(merged))
}

// runWorker runs one fleet worker against the coordinator at -worker until
// the fleet completes or the worker is signalled (which releases its
// lease after a final checkpoint).
func (c *cli) runWorker() int {
	url := strings.TrimSuffix(c.workerURL, "/")
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	id := c.workerID
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &fleet.Worker{
		URL:            url,
		ID:             id,
		Workers:        c.knobs.Workers,
		HeartbeatEvery: c.heartbeat,
		Interrupt:      installInterrupt(c.stderr),
		Logf:           c.fleetLogf(),
	}
	err := w.Run()
	switch {
	case errors.Is(err, fleet.ErrInterrupted):
		fmt.Fprintf(c.stderr, "b3: worker %s interrupted; lease released, checkpoints durable\n", id)
		return 130
	case err != nil:
		return c.fail(err)
	}
	fmt.Fprintf(c.stderr, "b3: worker %s: fleet complete\n", id)
	return 0
}
