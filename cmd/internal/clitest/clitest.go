// Package clitest pins a command's behaviour in golden transcripts. A
// command's TestMain hands over to Main; each Case then re-runs the
// test binary as the command (main with the case's arguments) in a
// shared working directory and compares its exit code, stdout, stderr
// and the files it wrote with testdata/<test>/<case>.golden. Run the
// tests with -update to rewrite the goldens.
package clitest

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden transcripts")

// argsEnv carries a child's arguments, JSON-encoded.
const argsEnv = "ODBSCALE_CLITEST_ARGS"

// Main runs the command as name with the arguments of a child started
// by Case.Run, or the tests otherwise.
func Main(m *testing.M, name string, main func()) {
	if enc, ok := os.LookupEnv(argsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(enc), &args); err != nil {
			panic(err)
		}
		os.Args = append([]string{name}, args...)
		flag.CommandLine = flag.NewFlagSet(name, flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Case is one invocation of the command.
type Case struct {
	Name  string
	Args  string   // space-separated arguments
	Stdin string   // file in the working directory fed to stdin
	Save  string   // file in the working directory receiving stdout
	Files []string // files or directories written, pinned in the golden
}

// logTime matches the timestamp the default log flags prefix.
var logTime = regexp.MustCompile(`(?m)^\d{4}/\d\d/\d\d \d\d:\d\d:\d\d `)

// Exec runs the command with args in dir, feeding it stdin, and returns
// its stdout, its stderr without log timestamps, and its exit code.
func Exec(t *testing.T, dir string, stdin io.Reader, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	enc, _ := json.Marshal(args)    // a []string always marshals
	cmd := exec.Command(os.Args[0]) // go test runs the binary by its absolute path
	cmd.Dir, cmd.Stdin = dir, stdin
	cmd.Env = append(os.Environ(), argsEnv+"="+string(enc))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return out.Bytes(), logTime.ReplaceAll(errOut.Bytes(), nil), code
}

// Run runs the case in dir as a subtest and checks its transcript.
func (c Case) Run(t *testing.T, dir string) {
	t.Run(c.Name, func(t *testing.T) {
		var stdin io.Reader
		if c.Stdin != "" {
			data, err := os.ReadFile(filepath.Join(dir, c.Stdin))
			if err != nil {
				t.Fatal(err)
			}
			stdin = bytes.NewReader(data)
		}
		stdout, stderr, code := Exec(t, dir, stdin, strings.Fields(c.Args)...)
		if c.Save != "" {
			if err := os.WriteFile(filepath.Join(dir, c.Save), stdout, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got bytes.Buffer
		fmt.Fprintf(&got, "$ %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s", c.Args, code, stdout, stderr)
		for _, root := range c.Files {
			err := filepath.WalkDir(filepath.Join(dir, root), func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				rel, err := filepath.Rel(dir, path)
				fmt.Fprintf(&got, "-- file %s --\n%s", filepath.ToSlash(rel), data)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		golden := filepath.Join("testdata", t.Name()+".golden")
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			g, w := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(string(want), "\n")
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Errorf("%s differs from line %d on (rerun with -update to accept):\n got: %q\nwant: %q",
				golden, i+1, g[min(i, len(g)-1)], w[min(i, len(w)-1)])
		}
	})
}

// Rejects checks each verb line exits 1 when an argument written BAD
// names a null artifact or one followed by trailing data, read from a
// file and, for the first BAD, from stdin.
func Rejects(t *testing.T, verbs ...string) {
	dir := t.TempDir()
	for _, bad := range []string{"null\n", "{}\ngarbage\n"} {
		if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, verb := range verbs {
			for _, line := range []string{strings.ReplaceAll(verb, "BAD", "bad.json"),
				strings.ReplaceAll(strings.Replace(verb, "BAD", "-", 1), "BAD", "bad.json")} {
				_, stderr, code := Exec(t, dir, strings.NewReader(bad), strings.Fields(line)...)
				if code != 1 {
					t.Errorf("%s on %q: exit %d, want 1\n%s", line, bad, code, stderr)
				}
			}
		}
	}
}
