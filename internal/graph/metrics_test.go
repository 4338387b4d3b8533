package graph

import (
	"strings"
	"testing"
)

func TestDiameterPath(t *testing.T) {
	g := mustPath(t, 6)
	if d := g.Diameter(); d != 5 {
		t.Fatalf("path(6) diameter %d, want 5", d)
	}
}

func TestDiameterCompleteGraph(t *testing.T) {
	b := NewBuilder(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	if d := b.MustBuild().Diameter(); d != 1 {
		t.Fatalf("K5 diameter %d, want 1", d)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if d := b.MustBuild().Diameter(); d != -1 {
		t.Fatalf("disconnected diameter %d, want -1", d)
	}
}

func TestDiameterTiny(t *testing.T) {
	if NewBuilder(1).MustBuild().Diameter() != -1 {
		t.Fatal("single node diameter should be -1 (undefined)")
	}
}

func TestAveragePathLengthPath3(t *testing.T) {
	// path(3): distances 0-1:1, 0-2:2, 1-2:1 -> mean over ordered pairs =
	// (1+2+1)*2/6 = 8/6.
	g := mustPath(t, 3)
	want := 8.0 / 6.0
	if got := g.AveragePathLength(); got != want {
		t.Fatalf("APL %v, want %v", got, want)
	}
}

func TestAveragePathLengthDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if got := b.MustBuild().AveragePathLength(); got != -1 {
		t.Fatalf("APL %v, want -1", got)
	}
}

func TestAverageDegree(t *testing.T) {
	g := mustPath(t, 5)
	if got := g.AverageDegree(); got != 8.0/5 {
		t.Fatalf("avg degree %v", got)
	}
	if NewBuilder(0).MustBuild().AverageDegree() != 0 {
		t.Fatal("empty graph avg degree")
	}
}

func TestDOTExport(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	dot := g.DOT("demo")
	for _, want := range []string{"graph \"demo\" {", "0 -- 1;", "2;", "}"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}
