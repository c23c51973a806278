// Package cli is the harness the seeding commands (casa-smem,
// casa-align, casa-serve, casa-sim, casa-index) run through. It owns the
// two jobs every one of them needs: opening the engine from -ref or
// -index under one table of conflict rules (Source), and attaching the
// run's telemetry — logging, progress, -http, -trace, -walltrace and
// -metrics (Run). A command keeps only its own logic, written as a
// run(ctx, args, stdout, stderr) int function that tests call in
// process; its main is cli.Main(run).
//
// Exit codes: 0 ok, 1 run failure (or -verify mismatches), 2 usage
// error or flag conflict, 130 interrupted.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"casa/internal/buildinfo"
	"casa/internal/engine"
	_ "casa/internal/shard" // registers the sharded:<name> composites
)

// RunFunc is a command's body: it parses args, writes to stdout and
// stderr, stops early when ctx is cancelled, and returns the exit code.
type RunFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) int

// Main runs a command and exits with its status. The first of signals
// cancels ctx and restores default handling, so a second one kills a
// stuck process; with no signals ctx is never cancelled.
func Main(run RunFunc, signals ...os.Signal) {
	ctx := context.Background()
	if len(signals) > 0 {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, signals...)
		context.AfterFunc(ctx, stop)
	}
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// UsageError is a command-line mistake: a missing, unknown or
// conflicting flag. Commands exit 2 on it.
type UsageError struct{ msg string }

func (e *UsageError) Error() string { return e.msg }

// Usagef returns a UsageError with a formatted message.
func Usagef(format string, a ...any) error {
	return &UsageError{fmt.Sprintf(format, a...)}
}

// exitCode maps an error to its exit status: 2 for usage errors, 1 for
// everything else.
func exitCode(err error) int {
	var ue *UsageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// Command is one invocation of a command: its name, its flag set (which
// already holds -version) and its output streams.
type Command struct {
	Name           string
	Flags          *flag.FlagSet
	Stdout, Stderr io.Writer
	version        *bool
}

// New returns a command whose flag set reports to stderr.
func New(name string, stdout, stderr io.Writer) *Command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Command{
		Name: name, Flags: fs, Stdout: stdout, Stderr: stderr,
		version: fs.Bool("version", false, "print build info and exit"),
	}
}

// Parse parses args into the flag set; see Parsed.
func (c *Command) Parse(args []string) (code int, ok bool) {
	return c.Parsed(c.Flags.Parse(args))
}

// Parsed takes the outcome of parsing the flag set and answers the
// requests that end a command before it runs: -h, -version, and
// -engine list or -verify list. ok false means exit now with code: 0
// for an answered request, 2 for a bad command line (a UsageError is
// reported here; the flag package reports its own errors).
func (c *Command) Parsed(err error) (code int, ok bool) {
	var ue *UsageError
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case errors.As(err, &ue):
		return c.Fail(err), false
	case err != nil:
		return 2, false
	case *c.version:
		buildinfo.Print(c.Stdout, c.Name)
		return 0, false
	}
	for _, name := range []string{"engine", "verify"} {
		if f := c.Flags.Lookup(name); f != nil && f.Value.String() == "list" {
			engine.WriteList(c.Stdout)
			return 0, false
		}
	}
	return 0, true
}

// Usage prints the flag summary and returns the usage exit code.
func (c *Command) Usage() int {
	c.Flags.Usage()
	return 2
}

// Fail reports err on stderr and returns its exit code.
func (c *Command) Fail(err error) int {
	fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name, err)
	return exitCode(err)
}
