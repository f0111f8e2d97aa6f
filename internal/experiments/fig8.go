package experiments

import (
	"fmt"

	"smt/internal/core"
	"smt/internal/homa"
	"smt/internal/ktls"
	"smt/internal/kvstore"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/tcpsim"
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

// msgSock adapts homa and SMT sockets to a common shape.
type msgSock interface {
	OnMessage(func(homa.Delivery))
	Send(dst uint32, port uint16, payload []byte, thread int) uint64
	Port() uint16
}

func redisOverMsg(name string, mkSock func(w *World, port uint16, server bool) msgSock, pair func(cli, srv msgSock) error) redisSystem {
	return redisSystem{name: name, setup: func(w *World, streams, valueSize int, done func(uint64, []byte)) (func(int, uint64, []byte), error) {
		store := kvstore.New(w.CM, fig8Keys, valueSize)
		srv := mkSock(w, ServerPort, true)
		srv.OnMessage(func(d homa.Delivery) {
			id, body, ok := kvUnwrap(d.Payload)
			if !ok {
				return
			}
			req, err := kvstore.DecodeRequest(body)
			if err != nil {
				return
			}
			resp, cpu := store.Execute(req)
			// Single-threaded server: everything on thread 0.
			w.Server.RunApp(0, cpu, func() {
				srv.Send(d.Src, d.SrcPort, kvWrap(id, resp), 0)
			})
		})
		cli := mkSock(w, 0, false)
		cli.OnMessage(func(d homa.Delivery) {
			if id, body, ok := kvUnwrap(d.Payload); ok {
				done(id, body)
			}
		})
		if pair != nil {
			if err := pair(cli, srv); err != nil {
				return nil, fmt.Errorf("%s: pair sessions: %w", name, err)
			}
		}
		return func(stream int, reqID uint64, req []byte) {
			cli.Send(ServerAddr, ServerPort, kvWrap(reqID, req), stream%AppThreads)
		}, nil
	}}
}

func redisHoma(name string) redisSystem {
	return redisOverMsg(name, func(w *World, port uint16, server bool) msgSock {
		cfg := homa.Config{Port: port}
		if server {
			cfg.AppThreads = []int{0}
		}
		host := w.Client
		if server {
			host = w.Server
		}
		return homa.NewSocket(host, cfg, nil)
	}, nil)
}

func redisSMT(name string, hw bool) redisSystem {
	return redisOverMsg(name, func(w *World, port uint16, server bool) msgSock {
		cfg := core.Config{HWOffload: hw, Transport: homa.Config{Port: port}}
		if server {
			cfg.Transport.AppThreads = []int{0}
		}
		host := w.Client
		if server {
			host = w.Server
		}
		return core.NewSocket(host, cfg)
	}, func(cli, srv msgSock) error {
		return core.PairSessions(cli.(*core.Socket), cli.Port(), srv.(*core.Socket), ServerPort, 31)
	})
}

// redisOverTCP wires the kvstore behind the TCP family with one
// connection per client stream; nil rec means plain TCP. Key material
// is derived per connection (ktls.ConnKeys), never shared.
func redisOverTCP(name string, rec *streamRecord) redisSystem {
	return redisSystem{name: name, setup: func(w *World, streams, valueSize int, done func(uint64, []byte)) (func(int, uint64, []byte), error) {
		if rec != nil {
			if err := rec.validate(w.CM); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		store := kvstore.New(w.CM, fig8Keys, valueSize)
		var srvCodec func(peerAddr uint32, peerPort uint16) tcpsim.Codec
		if rec != nil {
			srvCodec = func(peerAddr uint32, peerPort uint16) tcpsim.Codec {
				_, sk := ktls.ConnKeys(rec.label, peerAddr, peerPort)
				return rec.mustCodec(w.CM, sk)
			}
		}
		tcpsim.Listen(w.Server, serverPortK, tcpsim.Config{}, srvCodec, func() int { return 0 /* single-threaded server */ }, func(c *tcpsim.Conn) {
			c.OnMessage(func(m []byte) {
				id, body, ok := kvUnwrap(m)
				if !ok {
					return
				}
				req, err := kvstore.DecodeRequest(body)
				if err != nil {
					return
				}
				resp, cpu := store.Execute(req)
				w.Server.RunApp(0, cpu, func() { c.SendMessage(kvWrap(id, resp)) })
			})
		})
		conns := make([]*tcpsim.Conn, streams)
		for i := 0; i < streams; i++ {
			var cliCodec func(localPort uint16) tcpsim.Codec
			if rec != nil {
				cliCodec = func(localPort uint16) tcpsim.Codec {
					ck, _ := ktls.ConnKeys(rec.label, w.Client.Addr, localPort)
					return rec.mustCodec(w.CM, ck)
				}
			}
			c := tcpsim.Dial(w.Client, i%AppThreads, tcpsim.Config{}, cliCodec, ServerAddr, serverPortK, nil)
			c.OnMessage(func(m []byte) {
				if id, body, ok := kvUnwrap(m); ok {
					done(id, body)
				}
			})
			conns[i] = c
		}
		w.Eng.RunUntil(w.Eng.Now() + 5*sim.Millisecond)
		return func(stream int, reqID uint64, req []byte) {
			conns[stream].SendMessage(kvWrap(reqID, req))
		}, nil
	}}
}

// BuildRedis composes the §5.3 Redis harness for a spec, mirroring
// BuildFabric's matrix: bytestream record layers plug into the TCP
// wiring, the message transport carries plain Homa or SMT records, and
// inexpressible combinations return the same descriptive errors.
func BuildRedis(spec StackSpec) (redisSystem, error) {
	sys, err := buildRedis(spec)
	if err != nil {
		return redisSystem{}, err
	}
	// Declare the spec's encryption policy to the world's wire auditor
	// (when one is attached), mirroring BuildFabric.
	encrypted := spec.Record != RecordPlain
	inner := sys.setup
	sys.setup = func(w *World, streams, valueSize int, done func(uint64, []byte)) (func(int, uint64, []byte), error) {
		if w.Audit != nil {
			w.Audit.SetExpectCiphertext(encrypted)
		}
		return inner(w, streams, valueSize, done)
	}
	return sys, nil
}

func buildRedis(spec StackSpec) (redisSystem, error) {
	switch spec.Transport {
	case TransportTCP:
		rec, err := streamRecordFor(spec)
		if err != nil {
			return redisSystem{}, err
		}
		return redisOverTCP(spec.name(), rec), nil
	case TransportHoma:
		switch spec.Record {
		case RecordPlain:
			return redisHoma(spec.name()), nil
		case RecordSMTSW:
			return redisSMT(spec.name(), false), nil
		case RecordSMTHW:
			return redisSMT(spec.name(), true), nil
		default:
			// Delegate to BuildFabric for the canonical mismatch error.
			_, err := BuildFabric(spec)
			if err == nil {
				err = fmt.Errorf("stack %s: no redis wiring for record layer %q", spec.name(), spec.Record)
			}
			return redisSystem{}, err
		}
	default:
		return redisSystem{}, fmt.Errorf("stack %s: unknown transport %q (have tcp, homa)", spec.name(), spec.Transport)
	}
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
