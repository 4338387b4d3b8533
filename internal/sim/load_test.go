package sim

import "testing"

// TestLoadZeroNodes pins the empty-engine edge case: NodeLoad on an engine
// tracking no nodes returns an empty slice. (sim.New rejects empty
// networks, but a zero-value Engine — e.g. a partially initialized
// embedding — must still be safe to query.)
func TestLoadZeroNodes(t *testing.T) {
	var e Engine
	if load := e.NodeLoad(); len(load) != 0 {
		t.Errorf("NodeLoad() on zero-node engine has %d entries, want 0", len(load))
	}
}
