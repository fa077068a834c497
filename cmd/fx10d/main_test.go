package main

import (
	"strings"
	"testing"
	"time"
)

// A positional argument is a usage error, reported before anything
// listens: a mistyped or removed subcommand must not start a daemon.
func TestRunServeRejectsPositionalArgs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		word string
	}{
		{[]string{"loadgen"}, "loadgen"},
		{[]string{"-addr", "127.0.0.1:0", "route", "-backends", "x"}, "route"},
	} {
		errc := make(chan error, 1)
		go func() { errc <- runServe(tc.args) }()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), tc.word) {
				t.Errorf("runServe(%q) = %v, want an error naming %q", tc.args, err, tc.word)
			}
		case <-time.After(5 * time.Second):
			// runServe only blocks once it is serving.
			t.Fatalf("runServe(%q) started serving instead of rejecting %q", tc.args, tc.word)
		}
	}
}
