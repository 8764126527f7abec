package tracegen

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

var small = Config{Scale: 10}

func TestTableIIApplicationSet(t *testing.T) {
	apps := Apps()
	if len(apps) != 16 {
		t.Fatalf("apps = %d, want 16 (Table II)", len(apps))
	}
	wantProcs := map[string]int{
		"AMG": 8, "AMR MiniApp": 64, "BigFFT": 1024, "BoxLib CNS": 64,
		"BoxLib MultiGrid": 64, "CrystalRouter": 100, "FillBoundary": 1000,
		"HILO": 256, "HILO 2D": 256, "LULESH": 64, "MiniFe": 1152,
		"MOCFE": 64, "MultiGrid": 1000, "Nekbone": 64, "PARTISN": 168, "SNAP": 168,
	}
	for _, a := range apps {
		if wantProcs[a.Name] != a.Procs {
			t.Errorf("%s: procs = %d, want %d", a.Name, a.Procs, wantProcs[a.Name])
		}
	}
}

func TestByName(t *testing.T) {
	if a, ok := ByName("LULESH"); !ok || a.Procs != 64 {
		t.Fatal("ByName(LULESH) failed")
	}
	if _, ok := ByName("NoSuchApp"); ok {
		t.Fatal("ByName invented an app")
	}
}

func TestAllGeneratorsProduceValidTraces(t *testing.T) {
	for _, a := range Apps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			tr := a.Generate(small)
			if tr.App != a.Name {
				t.Fatalf("trace app = %q", tr.App)
			}
			if tr.NumRanks() != a.Procs {
				t.Fatalf("ranks = %d, want %d", tr.NumRanks(), a.Procs)
			}
			if tr.NumEvents() == 0 {
				t.Fatal("empty trace")
			}
			sends, recvs := 0, 0
			for ri := range tr.Ranks {
				last := -1.0
				for _, e := range tr.Ranks[ri].Events {
					if e.Walltime < last {
						t.Fatalf("rank %d: time goes backwards (%f after %f)", ri, e.Walltime, last)
					}
					last = e.Walltime
					switch e.Kind {
					case trace.OpSend:
						sends++
						if e.Peer < 0 || int(e.Peer) >= a.Procs {
							t.Fatalf("send to invalid rank %d", e.Peer)
						}
						if e.Tag < 0 {
							t.Fatal("send with wildcard tag")
						}
					case trace.OpRecv:
						recvs++
						if e.Peer != trace.AnySource && (e.Peer < 0 || int(e.Peer) >= a.Procs) {
							t.Fatalf("recv from invalid rank %d", e.Peer)
						}
					}
				}
			}
			if sends != recvs {
				t.Fatalf("sends (%d) != recvs (%d): matching cannot balance", sends, recvs)
			}
		})
	}
}

func TestCallMixShape(t *testing.T) {
	// Figure 6 structure: p2p-only apps, collectives-only apps, and mixed.
	p2pOnly := map[string]bool{"BigFFT": true, "CrystalRouter": true, "FillBoundary": true, "MultiGrid": true}
	collOnly := map[string]bool{"HILO": true, "HILO 2D": true}
	for _, a := range Apps() {
		// Scale 50 keeps runtime modest while giving modulo-gated collective
		// phases (every Nth iteration) a chance to fire.
		tr := a.Generate(Config{Scale: 50})
		m := tr.Mix()
		if m.OneSided != 0 {
			t.Errorf("%s: uses one-sided ops (none of the paper's apps do)", a.Name)
		}
		switch {
		case p2pOnly[a.Name]:
			if m.Collective != 0 {
				t.Errorf("%s: should be p2p-only, has %d collectives", a.Name, m.Collective)
			}
			if m.P2P == 0 {
				t.Errorf("%s: no p2p", a.Name)
			}
		case collOnly[a.Name]:
			if m.P2P != 0 {
				t.Errorf("%s: should be collectives-only, has %d p2p", a.Name, m.P2P)
			}
			if m.Collective == 0 {
				t.Errorf("%s: no collectives", a.Name)
			}
		default:
			if m.P2P == 0 || m.Collective == 0 {
				t.Errorf("%s: expected mixed profile, got %+v", a.Name, m)
			}
			if m.P2P <= m.Collective {
				t.Errorf("%s: p2p (%d) should dominate collectives (%d)", a.Name, m.P2P, m.Collective)
			}
		}
	}
}

func TestCNSDeepQueues(t *testing.T) {
	// BoxLib CNS posts a full 27-point stencil of receives per iteration —
	// the deepest queues in the set (paper: max depth 25 at one bin).
	tr, _ := ByName("BoxLib CNS")
	got := tr.Generate(small)
	// Count consecutive receives posted by rank 0 before its first send.
	pending := 0
	for _, e := range got.Ranks[0].Events {
		if e.Kind == trace.OpRecv {
			pending++
		}
		if e.Kind == trace.OpSend {
			break
		}
	}
	if pending < 20 {
		t.Fatalf("CNS pre-posts %d receives, want >= 20 for deep queues", pending)
	}
}

func TestSweepCompatibleSequences(t *testing.T) {
	// PARTISN/SNAP post long runs of receives with identical (source, tag):
	// the compatible sequences the fast path exploits.
	for _, name := range []string{"PARTISN", "SNAP"} {
		app, _ := ByName(name)
		tr := app.Generate(Config{Scale: 100})
		// Find the longest same-(peer,tag) run of receives on some rank.
		longest := 0
		for ri := range tr.Ranks {
			run, lastPeer, lastTag := 0, int32(-2), int32(-2)
			for _, e := range tr.Ranks[ri].Events {
				if e.Kind != trace.OpRecv {
					continue
				}
				if e.Peer == lastPeer && e.Tag == lastTag {
					run++
				} else {
					run = 1
					lastPeer, lastTag = e.Peer, e.Tag
				}
				if run > longest {
					longest = run
				}
			}
		}
		if longest < 8 {
			t.Errorf("%s: longest compatible sequence %d, want >= 8", name, longest)
		}
	}
}

func TestCrystalRouterUnexpectedHeavy(t *testing.T) {
	// CrystalRouter sends before the receives are posted: on every stage the
	// send timestamps precede the receive timestamps.
	app, _ := ByName("CrystalRouter")
	tr := app.Generate(small)
	var firstSend, firstRecv float64 = -1, -1
	for _, e := range tr.Ranks[0].Events {
		if e.Kind == trace.OpSend && firstSend < 0 {
			firstSend = e.Walltime
		}
		if e.Kind == trace.OpRecv && firstRecv < 0 {
			firstRecv = e.Walltime
		}
	}
	if firstSend < 0 || firstRecv < 0 || firstSend >= firstRecv {
		t.Fatalf("sends (%f) must precede receives (%f)", firstSend, firstRecv)
	}
}

func TestMOCFEUsesWildcards(t *testing.T) {
	app, _ := ByName("MOCFE")
	tr := app.Generate(small)
	wild := 0
	for ri := range tr.Ranks {
		for _, e := range tr.Ranks[ri].Events {
			if e.Kind == trace.OpRecv && e.Peer == trace.AnySource {
				wild++
			}
		}
	}
	if wild == 0 {
		t.Fatal("MOCFE generates no wildcard receives")
	}
}

func TestScaleControlsVolume(t *testing.T) {
	app, _ := ByName("LULESH")
	smallTr := app.Generate(Config{Scale: 10})
	fullTr := app.Generate(Config{Scale: 100})
	if smallTr.NumEvents() >= fullTr.NumEvents() {
		t.Fatalf("scale 10 (%d events) not smaller than scale 100 (%d)",
			smallTr.NumEvents(), fullTr.NumEvents())
	}
	// Determinism: same config, same trace.
	again := app.Generate(Config{Scale: 10})
	if again.NumEvents() != smallTr.NumEvents() {
		t.Fatal("generation is not deterministic")
	}
}

func TestTableIIRendering(t *testing.T) {
	out := TableII()
	for _, a := range Apps() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("table missing %s", a.Name)
		}
	}
	if !strings.Contains(out, "1152") {
		t.Error("table missing MiniFe process count")
	}
}

func TestGridTopology(t *testing.T) {
	g := grid3{4, 4, 4}
	if g.size() != 64 {
		t.Fatalf("size = %d", g.size())
	}
	for r := 0; r < g.size(); r++ {
		x, y, z := g.coords(r)
		if g.rank(x, y, z) != r {
			t.Fatalf("coords/rank not inverse at %d", r)
		}
		face := g.faceNeighbors(r)
		if len(face) != 6 {
			t.Fatalf("rank %d: %d face neighbors, want 6", r, len(face))
		}
		full := g.fullNeighbors(r)
		if len(full) != 26 {
			t.Fatalf("rank %d: %d full neighbors, want 26", r, len(full))
		}
		for _, nb := range append(face, full...) {
			if nb == r || nb < 0 || nb >= g.size() {
				t.Fatalf("rank %d: bad neighbor %d", r, nb)
			}
		}
	}
	// Degenerate grid: neighbors must deduplicate.
	g2 := grid3{2, 1, 1}
	if n := g2.faceNeighbors(0); len(n) != 1 || n[0] != 1 {
		t.Fatalf("2x1x1 neighbors = %v", n)
	}
}

// TestGeneratedTracesArePinned holds the generators' output still: the
// binary cache encoding (what trace.SaveCache writes) of all sixteen
// applications at scale 5 hashes to the digest it had before dedupe stopped
// building a map per call. A change that speeds generation up must leave it
// alone; a change that means to alter a trace replaces it, and says so.
func TestGeneratedTracesArePinned(t *testing.T) {
	const want = "cf9bd2092085a4de1e1f8714bbca11d4528ffb3dd40e50fe5acdb9e3eabcc89f"
	h := sha256.New()
	for _, a := range Apps() {
		if err := trace.EncodeBinary(h, a.Generate(Config{Scale: 5})); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("generated traces changed: cache bytes hash to %s, want %s", got, want)
	}
}
