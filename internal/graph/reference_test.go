package graph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"mobiletel/internal/xrand"
)

// refBuild is the Builder.Build of earlier versions, kept as the reference
// for the packed-key, two-pass fill: a sort.Slice of the edge pairs, then
// a scatter and a sort of every adjacency list.
func refBuild(n int, pairs [][2]int) (*Graph, error) {
	edges := make([][2]int32, len(pairs))
	for i, e := range pairs {
		edges[i] = [2]int32{int32(min(e[0], e[1])), int32(max(e[0], e[1]))}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for i := 1; i < len(edges); i++ {
		if edges[i] == edges[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", edges[i][0], edges[i][1])
		}
	}
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	offsets := make([]int32, n+1)
	maxDeg := 0
	for u, d := range deg {
		offsets[u+1] = offsets[u] + d
		maxDeg = max(maxDeg, int(d))
	}
	adj := make([]int32, 2*len(edges))
	cursor := slices.Clone(offsets[:n])
	for _, e := range edges {
		adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	for u := 0; u < n; u++ {
		nbrs := adj[offsets[u]:offsets[u+1]]
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	}
	return &Graph{offsets: offsets, adj: adj, n: n, m: len(edges), maxDeg: maxDeg}, nil
}

func TestBuildMatchesReference(t *testing.T) {
	rng := xrand.New(24)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(60)
		var pairs [][2]int
		for k := rng.Intn(3 * n); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			pairs = append(pairs, [2]int{u, v})
			if rng.Intn(4) == 0 { // the same edge once more, in either orientation
				pairs = append(pairs, [2]int{v, u})
			}
		}
		want, wantErr := refBuild(n, pairs)
		got, err := fromEdges(n, pairs)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("trial %d (n=%d, %d edges): error %v, want %v", trial, n, len(pairs), err, wantErr)
		}
		if err != nil {
			continue
		}
		if !got.Equal(want) || got.MaxDegree() != want.MaxDegree() {
			t.Fatalf("trial %d (n=%d, %d edges): Build differs from the reference", trial, n, len(pairs))
		}
	}
}

// refFromCSR is the FromCSR validation of earlier versions, kept as the
// reference for the cursor symmetry check: the same structural checks,
// then a HasEdge binary search for the reverse of every entry. When an
// offset runs beyond len(adj) and a later one comes back down to it, it
// panics, or reads past len(adj) if adj has the capacity; FromCSR rejects
// that input instead.
func refFromCSR(offsets, adj []int32) error {
	if len(offsets) == 0 || offsets[0] != 0 {
		return fmt.Errorf("graph: FromCSR offsets must start with 0 (len %d)", len(offsets))
	}
	n := len(offsets) - 1
	if int(offsets[n]) != len(adj) {
		return fmt.Errorf("graph: FromCSR offsets end at %d, adj has %d entries", offsets[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return fmt.Errorf("graph: FromCSR adjacency length %d is odd; an undirected graph stores each edge twice", len(adj))
	}
	for u := 0; u < n; u++ {
		if offsets[u+1] < offsets[u] {
			return fmt.Errorf("graph: FromCSR offsets decrease at node %d", u)
		}
		prev := int32(-1)
		for _, v := range adj[offsets[u]:offsets[u+1]] {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: FromCSR neighbor %d of node %d out of range [0,%d)", v, u, n)
			}
			if int(v) == u {
				return fmt.Errorf("graph: FromCSR self-loop at node %d", u)
			}
			if v <= prev {
				return fmt.Errorf("graph: FromCSR adjacency of node %d not strictly increasing at neighbor %d", u, v)
			}
			prev = v
		}
	}
	g := &Graph{offsets: offsets, adj: adj, n: n, m: len(adj) / 2}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(int(v), u) {
				return fmt.Errorf("graph: FromCSR edge (%d,%d) has no reverse entry", u, v)
			}
		}
	}
	return nil
}

const missingReverseFormat = "graph: FromCSR edge (%d,%d) has no reverse entry"

// checkFromCSR holds FromCSR to the reference validator on one input: the
// same verdict, the same message for a structural fault, a missing-reverse
// error that names an entry whose reverse really is missing, and an
// accepted graph equal to the one its own edge list builds.
func checkFromCSR(t *testing.T, offsets, adj []int32) {
	t.Helper()
	g, err := FromCSR(slices.Clone(offsets), slices.Clone(adj))
	var want error
	refPanicked := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		want = refFromCSR(offsets, slices.Clip(adj))
		return false
	}()
	if refPanicked {
		if err == nil {
			t.Fatalf("offsets %v adj %v: accepted an input the reference panics on", offsets, adj)
		}
		return
	}
	if (err == nil) != (want == nil) {
		t.Fatalf("offsets %v adj %v: error %v, reference %v", offsets, adj, err, want)
	}
	if err == nil {
		h, berr := fromEdges(g.N(), edgeList(g))
		if berr != nil || !g.Equal(h) || g.MaxDegree() != h.MaxDegree() {
			t.Fatalf("offsets %v adj %v: accepted graph differs from its edge list's build (%v)", offsets, adj, berr)
		}
		return
	}
	var u, v, wu, wv int
	if _, serr := fmt.Sscanf(want.Error(), missingReverseFormat, &wu, &wv); serr != nil {
		if err.Error() != want.Error() {
			t.Fatalf("offsets %v adj %v: error %q, reference %q", offsets, adj, err, want)
		}
		return
	}
	if _, serr := fmt.Sscanf(err.Error(), missingReverseFormat, &u, &v); serr != nil {
		t.Fatalf("offsets %v adj %v: error %q, want a missing reverse entry", offsets, adj, err)
	}
	if !slices.Contains(adj[offsets[u]:offsets[u+1]], int32(v)) || slices.Contains(adj[offsets[v]:offsets[v+1]], int32(u)) {
		t.Fatalf("offsets %v adj %v: %q names an edge whose reverse entry is present", offsets, adj, err)
	}
}

// decodeCSR turns fuzz bytes into small CSR arrays (n <= 64). Byte 0 picks
// the mode.
//
// Raw mode (even) reads len(offsets) from byte 1, then every offset and
// every adjacency entry as one signed byte, so any malformed shape can be
// written down (encodeRawCSR is its inverse).
//
// Graph mode (odd) reads n from byte 1 and a mutation count from byte 2,
// then that many (op, at, val) triples, then edges as byte pairs. It lays
// the edges out as valid CSR and applies the mutations, so most of its
// inputs are valid graphs or near misses: an entry overwritten, moved
// within its list, or deleted, or an offset nudged.
func decodeCSR(data []byte) (offsets, adj []int32) {
	if len(data) < 2 {
		return nil, nil
	}
	if data[0]%2 == 0 {
		offsets = make([]int32, int(data[1])%66)
		rest := data[2:]
		for i := range offsets {
			if i < len(rest) {
				offsets[i] = int32(int8(rest[i]))
			}
		}
		rest = rest[min(len(offsets), len(rest)):]
		adj = make([]int32, len(rest))
		for i, b := range rest {
			adj[i] = int32(int8(b))
		}
		return offsets, adj
	}
	n := int(data[1]) % 65
	rest := data[2:]
	muts := 0
	if len(rest) > 0 {
		muts, rest = int(rest[0])%8, rest[1:]
	}
	ops := rest[:min(3*muts, len(rest))]
	rest = rest[len(ops):]
	var nbrs [64]uint64
	for i := 0; n > 0 && i+1 < len(rest); i += 2 {
		if u, v := int(rest[i])%n, int(rest[i+1])%n; u != v {
			nbrs[u] |= 1 << v
			nbrs[v] |= 1 << u
		}
	}
	offsets = make([]int32, n+1)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if nbrs[u]>>v&1 != 0 {
				adj = append(adj, int32(v))
			}
		}
		offsets[u+1] = int32(len(adj))
	}
	for ; len(ops) >= 3; ops = ops[3:] {
		op, at, val := ops[0]%5, int(ops[1]), ops[2]
		if op == 3 {
			offsets[at%len(offsets)] += int32(int8(val)) % 3
			continue
		}
		if len(adj) == 0 {
			continue
		}
		i := at % len(adj)
		switch op {
		case 0:
			adj[i] = int32(int8(val))
		case 1:
			adj[i] = int32(int(val) % max(n, 1))
		case 2:
			adj = slices.Delete(adj, i, i+1)
			for x := range offsets {
				if int(offsets[x]) > i {
					offsets[x]--
				}
			}
		case 4:
			adj[i] = int32(int(val) % max(n, 1))
			for x := 0; x < n; x++ { // re-sort the owner's list
				if lo, hi := int(offsets[x]), int(offsets[x+1]); 0 <= lo && lo <= i && i < hi && hi <= len(adj) {
					slices.Sort(adj[lo:hi])
				}
			}
		}
	}
	return offsets, adj
}

// encodeRawCSR writes CSR arrays in decodeCSR's raw mode.
func encodeRawCSR(offsets, adj []int32) []byte {
	data := []byte{0, byte(len(offsets))}
	for _, x := range offsets {
		data = append(data, byte(int8(x)))
	}
	for _, x := range adj {
		data = append(data, byte(int8(x)))
	}
	return data
}

func FuzzFromCSR(f *testing.F) {
	names := make([]string, 0, len(malformedCSR))
	for name := range malformedCSR {
		names = append(names, name)
	}
	slices.Sort(names) // seed numbers stay put from run to run
	for _, name := range names {
		f.Add(encodeRawCSR(malformedCSR[name].offsets, malformedCSR[name].adj))
	}
	f.Add(encodeRawCSR([]int32{0, 1, 2}, []int32{1, 0}))
	// Graph mode: a 6-cycle with chords, intact, with one entry deleted
	// from each of two lists, and with an entry moved within its list.
	ring := []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3, 1, 4}
	f.Add(append([]byte{1, 6, 0}, ring...))
	f.Add(append([]byte{1, 6, 2, 2, 0, 0, 2, 7, 0}, ring...))
	f.Add(append([]byte{1, 6, 1, 4, 3, 5}, ring...))
	f.Fuzz(func(t *testing.T, data []byte) {
		offsets, adj := decodeCSR(data)
		checkFromCSR(t, offsets, adj)
	})
}

// TestFromCSRMatchesReference runs a few thousand decoded random inputs,
// mostly near misses of valid graphs, through checkFromCSR in plain go
// test.
func TestFromCSRMatchesReference(t *testing.T) {
	rng := xrand.New(408)
	data := make([]byte, 160)
	for trial := 0; trial < 5000; trial++ {
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		data[0] = byte(min(trial%5, 1))   // one in five in raw mode
		data[1] %= 1 + byte(rng.Intn(65)) // favor small n
		offsets, adj := decodeCSR(data[:rng.Intn(len(data))])
		checkFromCSR(t, offsets, adj)
	}
}

// torusCSR returns the CSR arrays of the rows×cols torus.
func torusCSR(rows, cols int) (offsets, adj []int32) {
	b := NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(r*cols+c, r*cols+(c+1)%cols)
			b.AddEdge(r*cols+c, (r+1)%rows*cols+c)
		}
	}
	g := b.MustBuild()
	return g.offsets, g.adj
}

// TestFromCSRSmallAllocatesOnlyTheGraph pins FromCSR's allocations for a
// per-epoch-sized graph: validating the arrays allocates nothing, so the
// returned *Graph is the only allocation.
func TestFromCSRSmallAllocatesOnlyTheGraph(t *testing.T) {
	offsets, adj := torusCSR(8, 16)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := FromCSR(offsets, adj); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("FromCSR of a 128-node torus allocates %v times, want 1 (the *Graph)", allocs)
	}
}

// BenchmarkFromCSR validates the 2^20-node torus CSR, gen.Torus's
// validation step.
func BenchmarkFromCSR(b *testing.B) {
	offsets, adj := torusCSR(1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromCSR(offsets, adj); err != nil {
			b.Fatal(err)
		}
	}
}
