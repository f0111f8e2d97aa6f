package experiments

import (
	"fmt"

	"smt/internal/cpusim"
	"smt/internal/kvstore"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/ycsb"
)

// Fig8Row is one (system, workload, value size) Redis throughput point.
type Fig8Row struct {
	System    string
	Workload  ycsb.Workload
	Value     int
	OpsPerSec float64
}

// fig8Keys is the database size for the YCSB runs.
const fig8Keys = 10000

// Fig8Values and Fig8Workloads are the Figure 8 sweep grid.
var (
	Fig8Values    = []int{64, 1024, 4096}
	Fig8Workloads = []ycsb.Workload{
		ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE,
	}
)

// redisSystem wires a kvstore server behind a transport. The server is
// single-threaded (app thread 0 on the server host), exactly like Redis:
// all request parsing, DB work, response building and the send-path
// costs (including software crypto) run there. Like FabricSystem it is
// composed from a StackSpec — see BuildRedis.
type redisSystem struct {
	name  string
	setup func(w *World, streams, valueSize int, done func(reqID uint64, resp []byte)) (func(stream int, reqID uint64, req []byte), error)
}

// kvWrap embeds a request id ahead of the kvstore request.
func kvWrap(reqID uint64, req []byte) []byte {
	return append(rpc.Encode(reqID, 0, rpc.MinSize), req...)
}

func kvUnwrap(m []byte) (uint64, []byte, bool) {
	id, _, err := rpc.Decode(m)
	if err != nil || len(m) < rpc.MinSize {
		return 0, nil, false
	}
	return id, m[rpc.MinSize:], true
}

// BuildRedis composes the §5.3 Redis harness for a spec over the same
// wiring as BuildFabric: the kvstore service in place of the echo, and
// resolve's descriptive errors for inexpressible combinations.
func BuildRedis(spec StackSpec) (redisSystem, error) { return buildRedis(spec, nil) }

// buildRedis is BuildRedis with buildFabric's audit attachment.
func buildRedis(spec StackSpec, a *auditScope) (redisSystem, error) {
	sw, err := resolve(spec)
	if err != nil {
		return redisSystem{}, err
	}
	return redisSystem{name: sw.name, setup: func(w *World, streams, valueSize int, done func(uint64, []byte)) (func(int, uint64, []byte), error) {
		a.attach(w, sw.encrypted())
		store := kvstore.New(w.CM, fig8Keys, valueSize)
		send, err := sw.wire(w, []*cpusim.Host{w.Client}, w.Server, FabricConfig{StreamsPerClient: streams}, service{
			threads: []int{0}, pairSeed: 31,
			serve: func(_ int, payload []byte, to replyTo) {
				id, body, ok := kvUnwrap(payload)
				if !ok {
					return
				}
				req, err := kvstore.DecodeRequest(body)
				if err != nil {
					return
				}
				resp, cpu := store.Execute(req)
				// Single-threaded server: everything on thread 0.
				w.Server.RunApp(0, cpu, func() { to.send(kvWrap(id, resp)) })
			},
			onResp: func(_ int, m []byte) {
				if id, body, ok := kvUnwrap(m); ok {
					done(id, body)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		return func(stream int, reqID uint64, req []byte) { send(0, stream, kvWrap(reqID, req)) }, nil
	}}, nil
}

// Fig8Systems is the §5.3 lineup (RedisLineup: TCP, user-space TLS,
// kTLS-sw/hw, Homa, SMT-sw/hw) built for the Redis harness.
func Fig8Systems() ([]redisSystem, error) {
	lineup := RedisLineup()
	systems := make([]redisSystem, len(lineup))
	for i, spec := range lineup {
		sys, err := BuildRedis(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		systems[i] = sys
	}
	return systems, nil
}

// MeasureRedis runs one (system, workload, value size) cell of Figure 8.
func MeasureRedis(sys redisSystem, w8 ycsb.Workload, valueSize, streams int, seed int64) (Fig8Row, error) {
	w := NewWorld(seed)
	gen := ycsb.New(w8, fig8Keys, seed)
	gen.MaxScanLen = 20
	var cl *rpc.ClosedLoop
	issue, err := sys.setup(w, streams, valueSize, func(id uint64, resp []byte) { cl.Done(id) })
	if err != nil {
		return Fig8Row{}, err
	}
	value := make([]byte, valueSize)
	cl = rpc.NewClosedLoop(w.Eng, func(stream int, reqID uint64) {
		op := gen.Next()
		var req kvstore.Request
		switch op.Type {
		case ycsb.OpRead:
			req = kvstore.Request{Cmd: kvstore.CmdGet, Key: op.Key}
		case ycsb.OpUpdate, ycsb.OpInsert:
			req = kvstore.Request{Cmd: kvstore.CmdSet, Key: op.Key, Value: value}
		case ycsb.OpScan:
			req = kvstore.Request{Cmd: kvstore.CmdScan, Key: op.Key, ScanLen: uint16(op.ScanLen)}
		}
		issue(stream, reqID, kvstore.EncodeRequest(req))
	})
	start := w.Eng.Now()
	warm := start + 5*sim.Millisecond
	stop := start + 30*sim.Millisecond
	cl.Start(streams, warm, stop)
	w.Eng.RunUntil(stop)
	cl.Stop()
	return Fig8Row{System: sys.name, Workload: w8, Value: valueSize, OpsPerSec: cl.Throughput()}, nil
}
