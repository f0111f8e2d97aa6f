package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"smt/internal/experiments"
)

// This file is the output check. Every row must satisfy its workload's
// invariants on every seed; on the reference seed every row must also
// match, bit for bit, the row captured in golden.json; and a point that
// runs twice in one process with the same seed must return the same
// row both times.

// linkGbps is the cost model's link rate; no stack can move more
// payload per second over one link than this.
const linkGbps = 100

// checkTput checks a two-host closed-loop throughput row.
func checkTput(r experiments.TputRow, streams int) error {
	switch {
	case !(r.RPCsPerSec > 0) || math.IsInf(r.RPCsPerSec, 0):
		return fmt.Errorf("rate %v RPC/s", r.RPCsPerSec)
	case !(r.MeanLatUs > 0):
		return fmt.Errorf("mean latency %v µs", r.MeanLatUs)
	case r.Concurrency != streams:
		return fmt.Errorf("concurrency %d, want %d", r.Concurrency, streams)
	case r.RPCsPerSec*float64(r.Size)*8 > linkGbps*1e9:
		return fmt.Errorf("goodput %.1f Gb/s exceeds the %d Gb/s link", r.RPCsPerSec*float64(r.Size)*8/1e9, linkGbps)
	// Little's law: a closed loop never has more RPCs in flight than
	// streams. The 5% allows for RPCs straddling the window's edges.
	case r.RPCsPerSec*r.MeanLatUs/1e6 > float64(streams)*1.05:
		return fmt.Errorf("%.1f RPCs in flight on %d streams", r.RPCsPerSec*r.MeanLatUs/1e6, streams)
	case !isFrac(r.ClientCPU) || !isFrac(r.ServerCPU):
		return fmt.Errorf("CPU busy fractions %v/%v outside [0,1]", r.ClientCPU, r.ServerCPU)
	}
	return nil
}

// checkLoadSweep checks an open-loop load-sweep row.
func checkLoadSweep(r experiments.LoadSweepRow) error {
	switch {
	case r.Issued == 0 || r.N == 0:
		return fmt.Errorf("issued %d, completed %d", r.Issued, r.N)
	case r.N > r.Issued:
		return fmt.Errorf("completed %d of %d issued", r.N, r.Issued)
	case !(r.OfferedGbps > 0) || r.GoodputGbps > r.OfferedGbps:
		return fmt.Errorf("goodput %v Gb/s over offered %v Gb/s", r.GoodputGbps, r.OfferedGbps)
	case !(r.P50Slowdown >= 1) || !(r.P99Slowdown >= r.P50Slowdown):
		return fmt.Errorf("slowdown p50 %v, p99 %v", r.P50Slowdown, r.P99Slowdown)
	case !(r.MeanLatUs > 0) || !(r.P99LatUs > 0):
		return fmt.Errorf("latency mean %v µs, p99 %v µs", r.MeanLatUs, r.P99LatUs)
	}
	return nil
}

// checkChurn checks a connection-churn row.
func checkChurn(r experiments.ChurnRow) error {
	switch {
	case r.Dials == 0 || r.Established == 0:
		return fmt.Errorf("dials %d, established %d", r.Dials, r.Established)
	case r.Completed > r.Established || r.Established+r.Failed > r.Dials:
		return fmt.Errorf("completed %d, established %d, failed %d of %d dials", r.Completed, r.Established, r.Failed, r.Dials)
	// The fabric is fault-free, so no handshake may fail (as the
	// registry's churn tests require).
	case r.Failed != 0:
		return fmt.Errorf("%d handshakes failed on a fault-free fabric", r.Failed)
	case r.SetupP50Us < 0 || r.SetupP99Us < r.SetupP50Us || !(r.FirstRespP99Us > 0):
		return fmt.Errorf("setup p50 %v µs, p99 %v µs, first response p99 %v µs", r.SetupP50Us, r.SetupP99Us, r.FirstRespP99Us)
	case !isFrac(r.HsCPUFrac) || !isFrac(r.TicketHitRate):
		return fmt.Errorf("handshake CPU fraction %v, ticket hit rate %v", r.HsCPUFrac, r.TicketHitRate)
	case r.Policy == experiments.HS0RTT.String() && r.TicketHits+r.TicketMisses == 0:
		return errors.New("0-RTT dials made no ticket lookups")
	}
	return nil
}

func isFrac(x float64) bool { return x >= 0 && x <= 1 }

// golden holds rows captured on the reference seed, per workload, keyed
// by goldenKey.
type golden struct {
	RefSeed int64                                 `json:"ref_seed"`
	Subs    int                                   `json:"subs"`
	Rows    map[string]map[string]json.RawMessage `json:"rows"`
}

// loadGolden parses golden.json, compacting each row so it compares
// byte for byte with json.Marshal output.
func loadGolden(data []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.RefSeed != refSeed || g.Subs != subSeeds {
		return nil, fmt.Errorf("golden.json covers seed %d × %d sub-seeds, want %d × %d", g.RefSeed, g.Subs, refSeed, subSeeds)
	}
	for _, rows := range g.Rows {
		for k, raw := range rows {
			var buf bytes.Buffer
			if err := json.Compact(&buf, raw); err != nil {
				return nil, fmt.Errorf("golden.json %s: %w", k, err)
			}
			rows[k] = buf.Bytes()
		}
	}
	return &g, nil
}

func goldenKey(pointKey string, seed int64) string {
	return fmt.Sprintf("%s/seed=%d", pointKey, seed)
}

// rowChecker applies the output check to the rows of one workload.
type rowChecker struct {
	wl     workload
	golden map[string]json.RawMessage
	// strict requires a golden row for every point (the reference seed).
	strict bool
	// seen holds each row already returned in this process, to prove a
	// repeated point returns the same row.
	seen map[string][]byte
}

func newRowChecker(wl workload, g *golden, seed int64) *rowChecker {
	return &rowChecker{
		wl:     wl,
		golden: g.Rows[wl.name],
		strict: seed == g.RefSeed,
		seen:   map[string][]byte{},
	}
}

// check validates one row of the point key run at seed.
func (c *rowChecker) check(key string, seed int64, row any) error {
	if err := c.wl.check(row); err != nil {
		return fmt.Errorf("%s: invariant: %w", key, err)
	}
	b, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	gk := goldenKey(key, seed)
	if want, ok := c.golden[gk]; ok {
		if !bytes.Equal(b, want) {
			return fmt.Errorf("%s: row differs from golden\n got %s\nwant %s", gk, b, want)
		}
	} else if c.strict {
		return fmt.Errorf("%s: no golden row on the reference seed", gk)
	}
	if prev, ok := c.seen[gk]; ok && !bytes.Equal(b, prev) {
		return fmt.Errorf("%s: repeated point changed its row\n got %s\nfirst %s", gk, b, prev)
	}
	c.seen[gk] = b
	return nil
}
