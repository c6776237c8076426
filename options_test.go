package relive_test

import (
	"bytes"
	"strings"
	"testing"

	"relive"
)

func observedServer(t *testing.T) *relive.System {
	t.Helper()
	sys, err := relive.ParseSystemString(`
init idle
idle request busy
busy result idle
busy reject idle
`)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWithRecorder: the options entry point must produce the same
// verdicts as the plain API and fill the attached trace.
func TestWithRecorder(t *testing.T) {
	sys := observedServer(t)
	f := relive.MustParseLTL("G F result")

	tr := relive.NewTrace()
	checker := relive.With(relive.WithRecorder(tr))
	rep, err := checker.CheckAll(sys, f)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := relive.CheckAll(sys, f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfied != plain.Satisfied ||
		rep.RelativeLiveness != plain.RelativeLiveness ||
		rep.RelativeSafety != plain.RelativeSafety {
		t.Errorf("verdicts diverge with recorder: %+v vs %+v", rep, plain)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("recorder saw no spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core.CheckAll", "Lemma 4.3", "Lemma 4.4", "buchi.Intersect"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("phase tree missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWithNoOptions: a bare Checker must behave like the plain API.
func TestWithNoOptions(t *testing.T) {
	sys := observedServer(t)
	f := relive.MustParseLTL("G F result")
	res, err := relive.With().CheckRelativeLiveness(sys, f)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Error("G F result should be a relative liveness property of the server")
	}
}

// TestTraceJSONRoundTripPublic: the public re-exports cover the dump
// cycle used by -trace-json consumers.
func TestTraceJSONRoundTripPublic(t *testing.T) {
	sys := observedServer(t)
	tr := relive.NewTrace()
	if _, err := relive.With(relive.WithRecorder(tr)).CheckSatisfies(sys, relive.MustParseLTL("G F result")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := relive.ReadTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != len(tr.Spans()) {
		t.Errorf("dump has %d spans, trace has %d", len(d.Spans), len(tr.Spans()))
	}
}
