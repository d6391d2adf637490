package bench

import (
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/netback"
	"aurora/internal/vm"
)

// oracleGroup runs the counter workload with chaosPages patterned pages
// for a few steps on a fresh machine and returns it with the counter.
func oracleGroup(t *testing.T) (*Node, *core.Group, uint64) {
	t.Helper()
	m := NewNode("oracle", 1, 0, 0, 0)
	g, err := spawnCounter(m.o, "oracle-app", chaosPages, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.k.Run(5); err != nil {
		t.Fatal(err)
	}
	c, err := readCounter(m.k, g)
	if err != nil {
		t.Fatal(err)
	}
	if c == 0 {
		t.Fatal("counter did not advance")
	}
	if err := verifyCounter(m.k, g, c, chaosPages, 42); err != nil {
		t.Fatalf("untouched workload fails the bit-identity check: %v", err)
	}
	return m, g, c
}

func TestOracleFlippedByteFailsBitIdentity(t *testing.T) {
	m, g, c := oracleGroup(t)
	p, err := member(m.k, g)
	if err != nil {
		t.Fatal(err)
	}
	const page, off = 11, 1234
	b := []byte{pattern(page, 42)[off] ^ 0x01}
	if err := p.WriteMem(p.HeapBase()+vm.Addr(page*vm.PageSize+off), b); err != nil {
		t.Fatal(err)
	}
	err = verifyCounter(m.k, g, c, chaosPages, 42)
	if err == nil {
		t.Fatal("one flipped byte passed the bit-identity check")
	}
	if !strings.Contains(err.Error(), "page 11 ") {
		t.Fatalf("error %q does not name page 11", err)
	}
}

func TestOracleWrongCounterFailsBitIdentity(t *testing.T) {
	m, g, c := oracleGroup(t)
	if err := verifyCounter(m.k, g, c+1, chaosPages, 42); err == nil {
		t.Fatal("counter off by one passed the bit-identity check")
	}
	if err := verifyCounter(m.k, g, c, chaosPages, 43); err == nil {
		t.Fatal("pages under the wrong pattern seed passed the bit-identity check")
	}
}

func TestOracleReadCounterWithoutMembers(t *testing.T) {
	m, g, c := oracleGroup(t)
	p, err := member(m.k, g)
	if err != nil {
		t.Fatal(err)
	}
	m.k.Exit(p, 0)
	if err := m.k.Reap(p); err != nil {
		t.Fatal(err)
	}
	if _, err := readCounter(m.k, g); err == nil {
		t.Fatal("reading the counter of a reaped group succeeded")
	}
	if err := verifyCounter(m.k, g, c, chaosPages, 42); err == nil {
		t.Fatal("verifying a reaped group succeeded")
	}
	empty := &core.Group{}
	if _, err := readCounter(m.k, empty); err == nil || !strings.Contains(err.Error(), "no members") {
		t.Fatalf("reading the counter of a group with no members: %v, want a no-members error", err)
	}
	if err := verifyCounter(m.k, empty, c, chaosPages, 42); err == nil {
		t.Fatal("verifying a group with no members succeeded")
	}
}

func TestOracleDurableLedger(t *testing.T) {
	l := make(durableLedger)
	for _, step := range []struct {
		lineage, durable uint64
		ok               bool
	}{
		{1, 3, true},
		{1, 3, true}, // standing still is fine
		{1, 5, true},
		{2, 1, true}, // lineages are independent
		{1, 4, false},
		{1, 5, true}, // the failed observation did not lower the mark
		{2, 0, false},
	} {
		err := l.observe(step.lineage, step.durable)
		if (err == nil) != step.ok {
			t.Fatalf("observe(%d, %d) = %v, want ok=%v", step.lineage, step.durable, err, step.ok)
		}
	}
}

func TestOracleSolePrimary(t *testing.T) {
	a, b, c := NewNode("a", 1, 0, 0, 0), NewNode("b", 2, 0, 0, 0), NewNode("c", 3, 0, 0, 0)
	const lineage = 7
	if err := solePrimary(lineage, a, b, c); err == nil {
		t.Fatal("no claimant passed the sole-primary check")
	}
	for _, claim := range []struct {
		n   *Node
		gen uint64
	}{{a, 2}, {b, 3}} {
		if err := claim.n.sb.Store().SetPrimary(lineage, claim.gen); err != nil {
			t.Fatal(err)
		}
	}
	if gen, top := core.PrimaryClaims(lineage, a.sb, b.sb, c.sb); gen != 3 || len(top) != 1 || top[0] != b.sb {
		t.Fatalf("PrimaryClaims = gen %d, %d claimants; want b alone at 3", gen, len(top))
	}
	if err := solePrimary(lineage, a, b, c); err != nil {
		t.Fatalf("one claimant at the max generation: %v", err)
	}
	if err := c.sb.Store().SetPrimary(lineage, 3); err != nil {
		t.Fatal(err)
	}
	gen, top := core.PrimaryClaims(lineage, a.sb, b.sb, c.sb)
	if gen != 3 || len(top) != 2 || top[0] != b.sb || top[1] != c.sb {
		t.Fatalf("PrimaryClaims = gen %d, %d claimants; want b and c at 3", gen, len(top))
	}
	err := solePrimary(lineage, a, b, c)
	if err == nil || !strings.Contains(err.Error(), "[b c]") {
		t.Fatalf("two claimants at the max generation: %v, want an error naming b and c", err)
	}
}

// TestAutoscalerAuditFlagsDoubleClaim: a second store claiming a placed
// lineage's primary role at the same generation is an invariant
// violation the autoscaler's per-tick audit records.
func TestAutoscalerAuditFlagsDoubleClaim(t *testing.T) {
	f := newFleet("audit", 1, 2, netback.LinkFaultConfig{}, core.PlacerConfig{Replicas: 2})
	for i := 0; i < 2; i++ {
		if err := f.placer.AddStore(f.store(i, domainOf(i, 2), 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	as := core.NewAutoscaler(f.placer, core.AutoscalerConfig{MinStores: 2, MaxStores: 2})
	if err := f.place(0); err != nil {
		t.Fatal(err)
	}
	as.Tick()
	if v := as.InvariantViolations(); len(v) != 0 {
		t.Fatalf("healthy fleet: violations %v", v)
	}
	pl := f.placer.Placements()[0]
	gen, primary := pl.Primary().SB.Store().PrimaryGen(pl.Lineage)
	if !primary {
		t.Fatal("placed lineage has no primary claim")
	}
	if err := pl.Replicas()[0].SB.Store().SetPrimary(pl.Lineage, gen); err != nil {
		t.Fatal(err)
	}
	as.Tick()
	v := as.InvariantViolations()
	if len(v) != 1 || !strings.Contains(v[0], "2 primary claims") {
		t.Fatalf("double claim: violations %v, want one naming 2 primary claims", v)
	}
}
