package main

import (
	"fmt"

	"smt/internal/experiments"
)

// A point is one call into a typed measurement function. Its row is the
// simulated outcome, which the benchmark checks but never times.
type point struct {
	key string
	// slot picks the point's seed: points that share a slot share a
	// seed, so every stack sees the same arrivals at a given load or
	// rate, as in the registry's sweeps.
	slot int
	run  func(seed int64) (any, error)
}

// workload is one named sweep over the default lineup.
type workload struct {
	name string
	// points wires the lineup into the pass's points; it is the only
	// place stacks are built.
	points func() ([]point, error)
	// warm is the key of the point run during set-up.
	warm string
	// check validates one row against the invariants every seed must
	// satisfy.
	check func(row any) error
	// counts extracts the row's deterministic counts.
	counts func(row any) counts
}

// counts are the deterministic per-row tallies the benchmark reports.
type counts struct {
	completed   uint64 // simulated RPCs (connections for conn-churn) completed
	drops       uint64 // switch tail drops
	established uint64 // dialed connections whose handshake completed
	hsFailed    uint64 // dialed connections whose handshake failed
	ticketHits  uint64
	ticketMiss  uint64
}

func (c *counts) add(o counts) {
	c.completed += o.completed
	c.drops += o.drops
	c.established += o.established
	c.hsFailed += o.hsFailed
	c.ticketHits += o.ticketHits
	c.ticketMiss += o.ticketMiss
}

// Fixed workload parameters (see README.md for why each was chosen).
var (
	bulkSizes   = []int{8192, 65536}
	fabricLoads = []float64{0.3, 0.6}
)

const (
	bulkStreams = 100
	// bulkWindowS is MeasureThroughput's measurement window (30 ms of
	// virtual time minus its 5 ms warm-up); RPCsPerSec × window is the
	// number of RPCs the point completed.
	bulkWindowS = 0.025
	churnRate   = 16000
)

var workloads = []workload{
	{
		name: "rpc-bulk",
		points: func() ([]point, error) {
			var pts []point
			for _, spec := range experiments.DefaultLineup() {
				sys, err := experiments.BuildSystem(spec)
				if err != nil {
					return nil, err
				}
				for _, size := range bulkSizes {
					pts = append(pts, point{
						key: fmt.Sprintf("sys=%s/size=%d", spec.Name, size),
						run: func(seed int64) (any, error) {
							return experiments.MeasureThroughput(sys, size, bulkStreams, 0, 0, seed)
						},
					})
				}
			}
			return pts, nil
		},
		warm:  "sys=kTLS-hw/size=65536",
		check: func(r any) error { return checkTput(r.(experiments.TputRow), bulkStreams) },
		counts: func(r any) counts {
			row := r.(experiments.TputRow)
			return counts{completed: uint64(row.RPCsPerSec*bulkWindowS + 0.5)}
		},
	},
	{
		name: "fabric-openloop",
		points: func() ([]point, error) {
			var pts []point
			for _, spec := range experiments.DefaultLineup() {
				sys, err := experiments.BuildFabric(spec)
				if err != nil {
					return nil, err
				}
				for i, load := range fabricLoads {
					pts = append(pts, point{
						key:  fmt.Sprintf("sys=%s/load=%.2f", spec.Name, load),
						slot: i,
						run: func(seed int64) (any, error) {
							return experiments.MeasureLoadSweep(sys, load, seed)
						},
					})
				}
			}
			return pts, nil
		},
		warm:  "sys=SMT-hw/load=0.30",
		check: func(r any) error { return checkLoadSweep(r.(experiments.LoadSweepRow)) },
		counts: func(r any) counts {
			row := r.(experiments.LoadSweepRow)
			return counts{completed: row.N, drops: row.SwitchDrops}
		},
	},
	{
		name: "conn-churn",
		points: func() ([]point, error) {
			var pts []point
			for _, spec := range experiments.DefaultLineup() {
				policies := []experiments.HandshakePolicy{experiments.ChurnPolicyFor(spec)}
				if policies[0] == experiments.HS0RTT {
					policies = append(policies, experiments.HS1RTT)
				}
				for _, pol := range policies {
					pts = append(pts, point{
						key: fmt.Sprintf("sys=%s/hs=%s/rate=%d", spec.Name, pol, churnRate),
						run: func(seed int64) (any, error) {
							return experiments.MeasureChurn(spec, pol, churnRate, seed)
						},
					})
				}
			}
			return pts, nil
		},
		warm:  "sys=SMT-hw/hs=0rtt/rate=16000",
		check: func(r any) error { return checkChurn(r.(experiments.ChurnRow)) },
		counts: func(r any) counts {
			row := r.(experiments.ChurnRow)
			return counts{
				completed:   row.Completed,
				established: row.Established,
				hsFailed:    row.Failed,
				ticketHits:  row.TicketHits,
				ticketMiss:  row.TicketMisses,
			}
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
