// Package cli is the driver behind the artifact commands odbprof,
// odbspan and odbq: verb dispatch, the shared capture flags and run,
// and loading, rendering, diffing and writing artifact files through
// their observe kind. odbsweep and odbrun share its machine resolver
// and writers, and the campaign commands odbsweep and paperrepro its
// campaign flags.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"odbscale/internal/observe"
	"odbscale/internal/system"
)

// Verb is one subcommand of a command.
type Verb struct {
	Name string
	Run  func(args []string)
}

// Main runs the verb os.Args[1] names with the remaining arguments,
// logging under the command's name. A missing or unknown verb prints
// the usage line and exits 2.
func Main(name string, verbs ...Verb) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	names := make([]string, len(verbs))
	for i, v := range verbs {
		if len(os.Args) > 1 && os.Args[1] == v.Name {
			v.Run(os.Args[2:])
			return
		}
		names[i] = v.Name
	}
	fmt.Fprintf(os.Stderr, "usage: %s %s [args]\n", name, strings.Join(names, "|"))
	os.Exit(2)
}

// Machine resolves a -machine name.
func Machine(name string) (system.MachineConfig, error) {
	switch name {
	case "xeon":
		return system.XeonQuad(), nil
	case "itanium2":
		return system.Itanium2Quad(), nil
	}
	return system.MachineConfig{}, fmt.Errorf("unknown machine %q", name)
}

// ParseInts parses a comma-separated integer list; a bad entry is
// fatal, logged as "bad <what> <s>: <error>".
func ParseInts(s, what string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			log.Fatalf("bad %s %q: %v", what, s, err)
		}
		out = append(out, v)
	}
	return out
}

// Point is one run's configuration as the capture flags give it.
type Point struct {
	W, C, P      int
	Seed         int64
	Machine      string
	Txns, Warmup int
}

// CaptureFlags registers -w -c -p -seed -machine -txns -warmup on fs.
func CaptureFlags(fs *flag.FlagSet) *Point {
	pt := new(Point)
	fs.IntVar(&pt.W, "w", 100, "warehouses")
	fs.IntVar(&pt.C, "c", 0, "concurrent clients (0 = heuristic)")
	fs.IntVar(&pt.P, "p", 4, "processors")
	fs.Int64Var(&pt.Seed, "seed", 1, "random seed")
	fs.StringVar(&pt.Machine, "machine", "xeon", "platform: xeon or itanium2")
	fs.IntVar(&pt.Txns, "txns", 2400, "measured transactions")
	fs.IntVar(&pt.Warmup, "warmup", -1, "warm-up transactions (-1 = default)")
	return pt
}

// Config builds the point's run configuration: heuristic clients for
// C ≤ 0, the default warm-up for Warmup < 0. An unknown machine is
// fatal.
func (pt Point) Config() system.Config {
	clients := pt.C
	if clients <= 0 {
		clients = system.HeuristicClients(pt.W, pt.P)
	}
	cfg := system.DefaultConfig(pt.W, clients, pt.P)
	cfg.Seed = pt.Seed
	cfg.MeasureTxns = pt.Txns
	if pt.Warmup >= 0 {
		cfg.WarmupTxns = pt.Warmup
	}
	m, err := Machine(pt.Machine)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Machine = m
	return cfg
}

// Run simulates cfg under kind and returns the run's artifact, labelled
// label, with the run's metrics.
func Run[T any](kind *observe.Artifact[T], label string, cfg system.Config) (T, system.Metrics) {
	opt, finish := kind.Attach(label)
	m, err := system.Run(context.Background(), cfg, opt)
	if err != nil {
		log.Fatal(err)
	}
	data, err := finish(true)
	if err != nil {
		log.Fatal(err)
	}
	if data == nil {
		log.Fatal("run published no report")
	}
	return kind.Store.Get(label), m
}

// WritePath writes to path ("-" = stdout) with write and reports the
// file's Close error.
func WritePath(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Dir is a directory of artifact files.
type Dir string

// MkDir creates the directory path, with any parents, before anything
// is written into it.
func MkDir(path string) Dir {
	if err := os.MkdirAll(path, 0o755); err != nil {
		log.Fatal(err)
	}
	return Dir(path)
}

// Write writes one file, <name>.json, with write.
func (d Dir) Write(name string, write func(io.Writer) error) error {
	return WritePath(filepath.Join(string(d), name+".json"), write)
}

// Tool is the command line of one artifact kind.
type Tool[T any] struct {
	Kind *observe.Artifact[T] // reads, writes and diffs the files
	Noun string               // names the files in help and errors
	// Report is the artifact's main report; capture -report writes it
	// to stderr, its help calling it ReportName.
	Report     func(T, io.Writer) error
	ReportName string
	// Summary is the capture log line after "captured <label>: ".
	Summary func(T, system.Metrics) string
	// Flags, when set, registers capture's kind-specific flags on fs
	// and returns the kind to capture with once they are parsed.
	Flags func(fs *flag.FlagSet) func() *observe.Artifact[T]
}

// Capture is the capture verb: it runs one simulation of the capture
// flags' configuration under the kind, labelled W=..,C=..,P=.., and
// writes the artifact to -o.
func (t Tool[T]) Capture(args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	pt := CaptureFlags(fs)
	kind := func() *observe.Artifact[T] { return t.Kind }
	if t.Flags != nil {
		kind = t.Flags(fs)
	}
	out := fs.String("o", "-", fmt.Sprintf("output file for the %s JSON (- = stdout)", t.Noun))
	report := fs.Bool("report", false, fmt.Sprintf("also print the %s to stderr", t.ReportName))
	fs.Parse(args)

	cfg := pt.Config()
	label := fmt.Sprintf("W=%d,C=%d,P=%d", cfg.Warehouses, cfg.Clients, cfg.Processors)
	v, m := Run(kind(), label, cfg)
	if err := WritePath(*out, func(w io.Writer) error { return t.Kind.Encode(v, w) }); err != nil {
		log.Fatal(err)
	}
	log.Printf("captured %s: %s", label, t.Summary(v, m))
	if *report {
		if err := t.Report(v, os.Stderr); err != nil {
			log.Fatal(err)
		}
	}
}

// load reads one artifact from path ("-" = stdin).
func (t Tool[T]) load(path string) T {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	v, err := t.Kind.Decode(r)
	if err != nil {
		log.Fatalf("%s: %s: %v", path, t.Kind.Name(), err)
	}
	return v
}

// Render returns a verb writing the artifact its one file argument
// names to stdout with write.
func (t Tool[T]) Render(write func(T, io.Writer) error) func(args []string) {
	return func(args []string) {
		if len(args) != 1 {
			log.Fatalf("expected exactly one %s file (or - for stdin)", t.Noun)
		}
		if err := write(t.load(args[0]), os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// Diff is the diff verb: the kind's comparison of its two file
// arguments. It exits 0 on any successful comparison — shifts are
// findings, not failures — so CI can diff against a golden baseline
// despite the float drift Go permits across architectures.
func (t Tool[T]) Diff(args []string) {
	if len(args) != 2 {
		log.Fatalf("expected two %s files", t.Noun)
	}
	if err := t.Kind.Diff(os.Stdout, t.load(args[0]), t.load(args[1])); err != nil {
		log.Fatal(err)
	}
}
