package relive_test

import (
	"context"
	"strings"
	"testing"

	"relive"
)

const serverText = `
# the paper's abstract server (Figure 4 shape)
init idle
idle request busy
busy result idle
busy reject idle
`

func TestQuickstartFlow(t *testing.T) {
	sys, err := relive.ParseSystemString(serverText)
	if err != nil {
		t.Fatal(err)
	}
	prop := relive.PropertyFromLTL(relive.MustParseLTL("G F result"), nil)
	ctx := context.Background()

	sat, err := relive.With().CheckSatisfies(ctx, sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if sat.Holds {
		t.Error("□◇result satisfied without fairness?")
	}
	rl, err := relive.With().CheckRelativeLiveness(ctx, sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Error("□◇result not a relative liveness property of the server")
	}
	rs, err := relive.With().CheckRelativeSafety(ctx, sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Holds {
		t.Error("□◇result is a relative safety property — then Theorem 4.7 would make it satisfied")
	}
}

func TestParseSystemReader(t *testing.T) {
	sys, err := relive.ParseSystem(strings.NewReader(serverText))
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumStates() != 2 {
		t.Errorf("parsed %d states, want 2", sys.NumStates())
	}
}

func TestAbstractionFlow(t *testing.T) {
	// Concrete server with internal decision actions.
	sys, err := relive.ParseSystemString(`
init idle
idle request deciding
deciding accept granted
deciding deny denied
granted result idle
denied reject idle
`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := relive.ParseHom(sys.Alphabet(), "request=>request, result=>result, reject=>reject, accept=>, deny=>")
	if err != nil {
		t.Fatal(err)
	}
	report, err := relive.With().VerifyViaAbstraction(context.Background(), sys, h, relive.MustParseLTL("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	if !report.AbstractHolds {
		t.Error("abstract check failed")
	}
	if !report.Simple {
		t.Errorf("hiding the decision actions should be simple here (witness %s)",
			report.SimplicityWitness.String(sys.Alphabet()))
	}
	if report.Conclusion != relive.ConcreteHolds {
		t.Errorf("conclusion %v, want ConcreteHolds", report.Conclusion)
	}
	// Cross-check via the transformed property.
	p, err := relive.ConcreteProperty(h, relive.MustParseLTL("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	rl, err := relive.With().CheckRelativeLiveness(context.Background(), sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Error("direct concrete check of R̄(η) failed")
	}
}

func TestObserveActions(t *testing.T) {
	ab := relive.NewAlphabet("a", "b", "tau")
	h := relive.ObserveActions(ab, "a", "b")
	sa, _ := ab.Lookup("tau")
	if h.Image(sa) != relive.Epsilon {
		t.Error("unobserved action not hidden")
	}
}

func TestFairImplementationFlow(t *testing.T) {
	sys, err := relive.ParseSystemString(`
init q
q a q
q b q
`)
	if err != nil {
		t.Fatal(err)
	}
	prop := relive.MustParseLTL("F (a & X a)")
	ok, bad, err := relive.AllStronglyFairRunsSatisfy(sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("minimal automaton already enforces the property under fairness")
	}
	if bad == nil {
		t.Fatal("no violating run")
	}
	fi, err := relive.With().SynthesizeFairImplementation(sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	same, _, err := fi.SameBehaviors(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Error("synthesis changed behaviors")
	}
}

func TestEvalLassoAndScheduler(t *testing.T) {
	sys, err := relive.ParseSystemString(serverText)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := relive.NewFairScheduler(sys)
	if err != nil {
		t.Fatal(err)
	}
	trace := sched.Trace(50)
	if len(trace) != 50 {
		t.Fatalf("trace length %d", len(trace))
	}
	// The fair scheduler alternates result and reject; count results.
	results := 0
	for _, e := range trace {
		if sys.Alphabet().Name(e.Sym) == "result" {
			results++
		}
	}
	if results < 10 {
		t.Errorf("fair scheduler produced only %d results in 50 steps", results)
	}
}

func TestPetriFlow(t *testing.T) {
	net := relive.NewNet()
	net.AddPlace("p", 1)
	net.AddTransition("go", map[string]int{"p": 1}, map[string]int{"p": 1})
	sys, err := net.ReachabilityGraph(10)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := relive.With().CheckRelativeLiveness(context.Background(), sys, relive.PropertyFromLTL(relive.MustParseLTL("G F go"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Error("G F go should be (relative) liveness on the one-loop net")
	}
}

func TestProductSystem(t *testing.T) {
	a, err := relive.ParseSystemString("init p\np sync p\np x p\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := relive.ParseSystemString("init q\nq sync q\nq y q\n")
	if err != nil {
		t.Fatal(err)
	}
	prod, err := relive.ProductSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if prod.NumStates() != 1 {
		t.Errorf("product states = %d, want 1", prod.NumStates())
	}
	if prod.Alphabet().Size() != 3 {
		t.Errorf("product alphabet = %v, want {sync,x,y}", prod.Alphabet())
	}
}

func TestRbarPublic(t *testing.T) {
	f, err := relive.Rbar(relive.MustParseLTL("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.String(), "ε") {
		t.Errorf("R̄ should introduce ε: %s", f)
	}
}
