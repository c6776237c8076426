package relive_test

import (
	"bytes"
	"context"
	"reflect"
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

// TestWithRecorder: attaching a recorder must not change the verdicts
// of a bare Checker, and must fill the attached trace.
func TestWithRecorder(t *testing.T) {
	sys := observedServer(t)
	p := relive.PropertyFromLTL(relive.MustParseLTL("G F result"), nil)
	ctx := context.Background()

	tr := relive.NewTrace()
	rep, err := relive.With(relive.WithRecorder(tr)).CheckAll(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := relive.With().CheckAll(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, plain) {
		t.Errorf("report diverges with recorder: %+v vs %+v", rep, plain)
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

// TestWithNoOptions: a bare Checker is the default Checker.
func TestWithNoOptions(t *testing.T) {
	sys := observedServer(t)
	p := relive.PropertyFromLTL(relive.MustParseLTL("G F result"), nil)
	res, err := relive.With().CheckRelativeLiveness(context.Background(), sys, p)
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
	p := relive.PropertyFromLTL(relive.MustParseLTL("G F result"), nil)
	if _, err := relive.With(relive.WithRecorder(tr)).CheckSatisfies(context.Background(), sys, p); err != nil {
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

// TestStatisticalFallbackAppliesToCheckAll: the fallback option is
// honored by CheckAll. The 2-state server is over a 1-state budget, so
// its report must come from the sampling engine.
func TestStatisticalFallbackAppliesToCheckAll(t *testing.T) {
	sys := observedServer(t)
	p := relive.PropertyFromLTL(relive.MustParseLTL("G F result"), nil)
	rep, err := relive.With(relive.WithStatisticalFallback(1, 0)).CheckAll(context.Background(), sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Statistical == nil {
		t.Fatalf("CheckAll ignored WithStatisticalFallback: exact report %+v", rep)
	}
	if !rep.Satisfied || !rep.RelativeLiveness || !rep.RelativeSafety {
		t.Errorf("sampled verdicts on the server: %+v", rep)
	}
}

// TestCheckerOptionsApplyToEveryMethod: every check entry of the
// Checker honors its options. Under WithRecorder each one emits its
// usual root span, and WithParallelism(3) leaves the CheckAll report
// identical to the serial one.
func TestCheckerOptionsApplyToEveryMethod(t *testing.T) {
	sys := observedServer(t)
	f := relive.MustParseLTL("G F result")
	p := relive.PropertyFromLTL(f, nil)
	h := relive.ObserveActions(sys.Alphabet(), "request", "result", "reject")
	behaviors, err := sys.Behaviors()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		root string
		run  func(c *relive.Checker) error
	}{
		{"core.CheckAll", func(c *relive.Checker) error {
			_, err := c.CheckAll(ctx, sys, p)
			return err
		}},
		{"core.RelativeLiveness", func(c *relive.Checker) error {
			_, err := c.CheckRelativeLiveness(ctx, sys, p)
			return err
		}},
		{"core.RelativeSafety", func(c *relive.Checker) error {
			_, err := c.CheckRelativeSafety(ctx, sys, p)
			return err
		}},
		{"core.Satisfies", func(c *relive.Checker) error {
			_, err := c.CheckSatisfies(ctx, sys, p)
			return err
		}},
		{"core.CheckPortfolio", func(c *relive.Checker) error {
			_, err := c.CheckPropertyPortfolio(ctx, sys, []relive.Property{p})
			return err
		}},
		{"core.CheckSystemsPortfolio", func(c *relive.Checker) error {
			_, err := c.CheckSystemsPortfolio(ctx, []*relive.System{sys}, p)
			return err
		}},
		{"core.MachineClosed", func(c *relive.Checker) error {
			_, err := c.MachineClosed(behaviors, behaviors)
			return err
		}},
		{"core.SynthesizeFairImplementation", func(c *relive.Checker) error {
			_, err := c.SynthesizeFairImplementation(sys, f)
			return err
		}},
		{"core.VerifyViaAbstraction", func(c *relive.Checker) error {
			_, err := c.VerifyViaAbstraction(ctx, sys, h, f)
			return err
		}},
		{"core.CheckFairAbstract", func(c *relive.Checker) error {
			_, err := c.CheckFairAbstract(ctx, sys, h, relive.FairnessStrong, f)
			return err
		}},
		{"core.CheckStatistical", func(c *relive.Checker) error {
			_, err := c.CheckStatistical(ctx, sys, p)
			return err
		}},
	} {
		tr := relive.NewTrace()
		if err := tc.run(relive.With(relive.WithRecorder(tr))); err != nil {
			t.Fatalf("%s: %v", tc.root, err)
		}
		spans := tr.Spans()
		if len(spans) == 0 || spans[0].Name != tc.root || spans[0].Parent != 0 {
			t.Errorf("%s: recorder missed the root span; spans %v", tc.root, spans)
		}
	}

	serial, err := relive.With().CheckAll(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := relive.With(relive.WithParallelism(3)).CheckAll(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("WithParallelism(3) report %+v, serial %+v", par, serial)
	}
}
