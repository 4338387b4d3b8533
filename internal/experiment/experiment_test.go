package experiment

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every experiment in the DESIGN.md §4 index must be registered.
	want := []string{
		"E1-blindgossip-scaling",
		"E2-blindgossip-lowerbound",
		"E3-pushpull-bound",
		"E4-lemma-v1-gamma",
		"E5-ppush-approx",
		"E6-bitconv-tau",
		"E7-zero-vs-one-bit",
		"E8-async-bitconv",
		"E9-self-stabilization",
		"E10-churn-robustness",
		"E11-good-edge-probability",
		"E12-classical-vs-mobile",
		"A1-ablation-grouplen",
		"A2-ablation-tagbits",
		"A3-ablation-accept",
		"R1-leader-crash-reelection",
		"R2-corruption-recovery",
		"R3-message-loss-slowdown",
		"R4-partition-heal",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		ids := make([]string, 0)
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
		t.Errorf("registry has %d experiments, want %d: %v", len(All()), len(want), ids)
	}
}

func TestAllExperimentsHaveClaims(t *testing.T) {
	for _, e := range All() {
		if e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %s missing claim or runner", e.ID)
		}
		if !strings.Contains(e.Claim, "heorem") && !strings.Contains(e.Claim, "emma") &&
			!strings.Contains(e.Claim, "ection") && !strings.Contains(e.Claim, "orollary") &&
			!strings.Contains(e.Claim, "esign") && !strings.Contains(e.Claim, "odel") &&
			!strings.Contains(e.Claim, "gap") && !strings.Contains(e.Claim, "adapt") {
			t.Errorf("experiment %s claim does not cite the paper: %q", e.ID, e.Claim)
		}
	}
}

func TestByIDMiss(t *testing.T) {
	if _, ok := ByID("nonexistent"); ok {
		t.Fatal("ByID found a nonexistent experiment")
	}
}

// quickTablePins are the SHA-256 digests of every experiment's quick-mode
// table.Text() at seed 12345 with 2 trials. A table is a pure function of
// (seed, trials, quick), so any change to a digest is a change to what the
// reproduction reports; record new digests only for an intended change.
var quickTablePins = map[string]string{
	"A1-ablation-grouplen":       "f0a8f8fa865deeff7900b8a6e1c40372bbbb0aeb794e616cfa9fdd3d7ba68ec1",
	"A2-ablation-tagbits":        "a33b690bbd6ca7bb9d2fede2c85f149b5f7641692cb2c3eb9a3e0a2d209ebfe3",
	"A3-ablation-accept":         "4f98cb4f1012ca39c47bd8712af636bd6af8805cc20332d1c41d6b58ff1f5716",
	"E1-blindgossip-scaling":     "34ebff7f5330c37d96b213d5cfc0f3c59079229e1ef48c1fed8108af3f52b86b",
	"E10-churn-robustness":       "ba8783733db6502e3a2313bb8e04a4ccf417489a29905850d381de88a0b93369",
	"E11-good-edge-probability":  "f8bde3dd038126fd1c2e6d44c074a858e7dbe6f2d2ed8e681e87cc3975847001",
	"E12-classical-vs-mobile":    "66bc51636a66e76f60b3fb4725d15b657b782b09c5b5b44b9499a410d81dd654",
	"E2-blindgossip-lowerbound":  "d9cbf47da570c22394e9705602eeba6772668e65599d918d8c51fef310b403f8",
	"E3-pushpull-bound":          "0612f75ad6f67e903c0c9cb9742a4579310c0084335b189b5d3363a0b3452cd1",
	"E4-lemma-v1-gamma":          "c43348833d0dd77e9c6e3132611992bd1b9fe191a69101be42867c28b68f3258",
	"E5-ppush-approx":            "bd0583f8d83d4e18d4278337ac1a740ac91d2b09ed4f1849375008f2c5ffa654",
	"E6-bitconv-tau":             "215d59e7fc9854b55cf0541e906867cf3e5074269e9a51709b19e93490212d6c",
	"E7-zero-vs-one-bit":         "8a7271f7554d0dde2381cc4d9ad5ef4ea27096f821634623c3ea06b2c304313e",
	"E8-async-bitconv":           "a6994178b300a27b673060cf1deefd9361b74960a1ba1820262baeb954773656",
	"E9-self-stabilization":      "b71f17d30c00ba78e80ea08e47b7bbc9e84116e3fcc43428c0b916b232e63075",
	"R1-leader-crash-reelection": "74ea5a5a4987fe5d93d309dc73b2a35c3bc57c8ff5c5c71e5fd8a5fb58c7c840",
	"R2-corruption-recovery":     "9ba2a250ff3621c183e687f8924cc8c5e246dbd6bb6482bc86cba27eb0a2585f",
	"R3-message-loss-slowdown":   "756cd8093211c1231570d90dc0391d4798582d55b35f40f593b4a796a959042e",
	"R4-partition-heal":          "021ba043e0207a8b5c904214c3e1328e6e6f57f528698990b56ea7d315c93bce",
}

// TestQuickRuns executes every experiment in quick mode with a minimal trial
// count: a full integration pass over the whole reproduction pipeline, with
// every rendered table pinned to its recorded digest.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			table, err := e.Run(Config{Seed: 12345, Trials: 2, Quick: true})
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if table == nil || len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			text := table.Text()
			if !strings.Contains(text, "==") {
				t.Fatalf("%s produced malformed table:\n%s", e.ID, text)
			}
			want, ok := quickTablePins[e.ID]
			if !ok {
				t.Fatalf("%s has no pinned digest", e.ID)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != want {
				t.Fatalf("%s table digest %s, pinned %s:\n%s", e.ID, got, want, text)
			}
		})
	}
}

func TestHelperFunctions(t *testing.T) {
	if pick(true, 1, 2) != 1 || pick(false, 1, 2) != 2 {
		t.Fatal("pick wrong")
	}
	if pickTrials(Config{Trials: 7}, 1, 2) != 7 {
		t.Fatal("explicit trials ignored")
	}
	if pickTrials(Config{Quick: true}, 1, 2) != 1 {
		t.Fatal("quick default wrong")
	}
	if pickTrials(Config{}, 1, 2) != 2 {
		t.Fatal("full default wrong")
	}
	if trialSeed(1, 2, 3) == trialSeed(1, 3, 2) {
		t.Fatal("trialSeed symmetric")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	register(Experiment{ID: "E1-blindgossip-scaling", Claim: "dup", Run: nil})
}
