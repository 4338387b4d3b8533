// Package simflags defines the simulation flags that mtmsim and mtmtrace
// record share, and turns their values into the run they describe: a
// topology, a schedule and mobiletel.Options, then a leader election or a
// rumor spreading run. Each command registers these flags next to its own
// output flags, so one set of flags means the same run under both
// commands.
package simflags

import (
	"flag"
	"fmt"

	"mobiletel"
)

// Flags holds the shared flag values.
type Flags struct {
	Topo      string
	N         int
	Deg       int
	Algo      string
	Rumor     string
	Schedule  string
	Tau       int
	Seed      uint64
	MaxRounds int
	Classical bool
	// Workers is the engine worker count: 0 means GOMAXPROCS, 1 sequential.
	// Results and traces are byte-identical across worker counts, which is
	// what mtmtrace diff pins in CI.
	Workers int

	// Fault-injection knobs (all zero = fault-free). Faulted runs are as
	// deterministic as clean ones: same seed, same fault events.
	CrashRate    float64
	RecoverRate  float64
	MaxDown      int
	ProposalLoss float64
	ConnLoss     float64
	TagFlipRate  float64
	FaultSeed    uint64
	Partition    string
}

// Register defines the shared flags on fs, with their defaults, storing
// into f.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Topo, "topo", "regular", "topology: "+mobiletel.TopologyNames)
	fs.IntVar(&f.N, "n", 128, "number of devices (interpreted per topology)")
	fs.IntVar(&f.Deg, "deg", 8, "degree for -topo regular")
	fs.StringVar(&f.Algo, "algo", "blindgossip", "leader election algorithm: blindgossip|bitconv|asyncbitconv")
	fs.StringVar(&f.Rumor, "rumor", "", "run rumor spreading instead: pushpull|ppush")
	fs.StringVar(&f.Schedule, "schedule", "static", "schedule: "+mobiletel.ScheduleNames)
	fs.IntVar(&f.Tau, "tau", 4, "stability factor for dynamic schedules")
	fs.Uint64Var(&f.Seed, "seed", 1, "random seed (runs are deterministic per seed)")
	fs.IntVar(&f.MaxRounds, "max-rounds", 10_000_000, "abort if not stabilized by this round")
	fs.BoolVar(&f.Classical, "classical", false, "use classical telephone semantics (unbounded incoming connections; baseline, not the paper's model)")
	fs.IntVar(&f.Workers, "workers", 0, "engine worker count (0 = GOMAXPROCS, 1 = sequential; results and traces are identical across counts)")
	fs.Float64Var(&f.CrashRate, "crash-rate", 0, "per-round probability that each up device crashes")
	fs.Float64Var(&f.RecoverRate, "recover-rate", 0, "per-round probability that each down device recovers")
	fs.IntVar(&f.MaxDown, "max-down", 0, "cap on simultaneously crashed devices (0 = n-1)")
	fs.Float64Var(&f.ProposalLoss, "proposal-loss", 0, "probability that a sent proposal is dropped")
	fs.Float64Var(&f.ConnLoss, "conn-loss", 0, "probability that an accepted connection fails before transfer")
	fs.Float64Var(&f.TagFlipRate, "tagflip-rate", 0, "probability that an advertised tag has one bit flipped")
	fs.Uint64Var(&f.FaultSeed, "fault-seed", 0, "fault plan seed (0 = derive from -seed)")
	fs.StringVar(&f.Partition, "partition", "", "schedule a network partition as start:heal:parts (heal 0 = never; repeatable via commas)")
}

// Build resolves the flags into the topology, the schedule and the options
// of the run they describe. resetOnRecover says whether recovering devices
// restart from their initial protocol state. The options carry a fault plan
// only when some fault flag is set, so a fault-free run stays on the
// engine's fault-free path.
func (f *Flags) Build(resetOnRecover bool) (mobiletel.Topology, mobiletel.Schedule, mobiletel.Options, error) {
	topo, err := mobiletel.BuildTopology(f.Topo, f.N, f.Deg, f.Seed)
	if err != nil {
		return mobiletel.Topology{}, mobiletel.Schedule{}, mobiletel.Options{}, err
	}
	sched, err := mobiletel.BuildSchedule(f.Schedule, topo, f.Tau, f.Seed+1)
	if err != nil {
		return mobiletel.Topology{}, mobiletel.Schedule{}, mobiletel.Options{}, err
	}
	partitions, err := mobiletel.ParsePartitions(f.Partition)
	if err != nil {
		return mobiletel.Topology{}, mobiletel.Schedule{}, mobiletel.Options{}, err
	}
	opts := mobiletel.Options{Seed: f.Seed + 2, MaxRounds: f.MaxRounds, Classical: f.Classical, Workers: f.Workers}
	if f.CrashRate > 0 || f.RecoverRate > 0 || f.ProposalLoss > 0 || f.ConnLoss > 0 || f.TagFlipRate > 0 || len(partitions) > 0 {
		fseed := f.FaultSeed
		if fseed == 0 {
			fseed = f.Seed + 3
		}
		opts.Faults = &mobiletel.FaultPlan{
			Seed:           fseed,
			CrashRate:      f.CrashRate,
			RecoverRate:    f.RecoverRate,
			MaxDown:        f.MaxDown,
			ResetOnRecover: resetOnRecover,
			ProposalLoss:   f.ProposalLoss,
			ConnLoss:       f.ConnLoss,
			TagFlipRate:    f.TagFlipRate,
			Partitions:     partitions,
		}
	}
	return topo, sched, opts, nil
}

// Run executes what the flags select over sched — rumor spreading from
// device 0 when -rumor is set, a leader election otherwise — and returns
// the one-line outcome mtmsim prints. n is the number of devices.
func (f *Flags) Run(n int, sched mobiletel.Schedule, opts mobiletel.Options) (string, error) {
	if f.Rumor != "" {
		strategy := mobiletel.PushPull
		switch f.Rumor {
		case "pushpull":
		case "ppush":
			strategy = mobiletel.PPush
		default:
			return "", fmt.Errorf("unknown rumor strategy %q", f.Rumor)
		}
		res, err := mobiletel.SpreadRumor(sched, strategy, []int{0}, opts)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("rumor %s: informed all %d devices in %d rounds (%d connections)",
			strategy, n, res.Rounds, res.Connections), nil
	}
	algo, err := mobiletel.ParseAlgorithm(f.Algo)
	if err != nil {
		return "", err
	}
	res, err := mobiletel.ElectLeader(sched, algo, opts)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("leader election %s: stabilized to leader %#x in %d rounds (%d connections)",
		algo, res.Leader, res.Rounds, res.Connections), nil
}
