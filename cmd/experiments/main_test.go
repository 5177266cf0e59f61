package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

// TestDefaultOutputGolden reruns the default invocation — every table and
// figure of the paper's evaluation — and compares stdout byte for byte with
// testdata/stdout.golden. Regenerate the golden only for a change that is
// meant to move the paper's numbers:
//
//	go run ./cmd/experiments > cmd/experiments/testdata/stdout.golden
func TestDefaultOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark compilation in -short mode")
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() {
		args, flags := os.Args, flag.CommandLine
		defer func() { os.Args, flag.CommandLine = args, flags }()
		os.Args = []string{"experiments"}
		flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
		main()
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout diverges from testdata/stdout.golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// everything fn printed.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	func() {
		defer func() { os.Stdout = stdout }()
		fn()
	}()
	w.Close()
	out := <-done
	r.Close()
	return out
}
