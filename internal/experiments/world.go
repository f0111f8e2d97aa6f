// Package experiments reproduces the paper's evaluation (§5) on the
// simulated substrate, organized around a named experiment registry.
//
// Every table/figure registers itself (register.go) as an Experiment —
// a named sweep decomposed into independent Points, where one Point is
// one (configuration, seed) cell that builds its own World. The
// parallel runner (runner.go) fans any subset of points out across a
// bounded worker pool with deterministic, canonically ordered results
// and per-point wall-clock timing; artifact.go serializes a run to the
// machine-readable JSON that smtexp -json writes and the CI smoke steps
// read.
//
// Three layers of access, outermost first:
//
//   - cmd/smtexp: list/run experiments by name, JSON artifacts, lineup
//     selection via -stacks.
//   - Registry API: Lookup/Names/All, Run/RunPoints/RunNamed (the
//     lineup is RunOptions.Stacks), and the stack registry (stack.go):
//     StackSpec, BuildFabric, DefaultLineup.
//   - Typed measurement functions (MeasureRTT, MeasureThroughput,
//     MeasureRedis, MeasureIncast, ...) that return plain row structs.
//     Each registered sweep (register.go) is the one definition of its
//     grid and seeds over these; shape tests and benchmarks call them
//     directly or run a filtered subset of the registry's points.
//
// The systems under test are composed, not hardwired: a StackSpec names
// a transport × record-layer cell, resolve (stack.go) places it in the
// buildable matrix once, and every harness wires the result from the
// shared constructors: newMsgSock (a homa or SMT socket, this file),
// the streamRecord codec factories (stack.go), echoServer, and wire,
// which binds a harness's service (echo or kvstore) to the transport.
//
// Worlds come in two shapes. NewWorld builds the paper's two-host
// back-to-back testbed; NewFabricWorld builds an N-host fabric from a
// netsim.Topology (hosts behind an output-queued switch), which the
// incast and multiclient experiments use. The two-host world is exactly
// the N=2 switchless fabric, so every §5 experiment runs unchanged on
// the generalized substrate.
package experiments

import (
	"fmt"

	"smt/internal/audit"
	"smt/internal/core"
	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/homa"
	"smt/internal/netsim"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/tcpsim"
	"smt/internal/wire"
)

// Testbed constants from §5: one NUMA node per host, 12 app threads + 4
// stack (softirq) threads per side, 100 GbE links. The client/server
// addresses follow the wire.HostAddr convention (host i at address i+1).
const (
	ClientAddr  = 1
	ServerAddr  = 2
	ServerPort  = 7000
	AppThreads  = 12
	StackCores  = 4
	serverPortK = 7443 // TCP-family server port
)

// World is one testbed instance: N hosts on a shared fabric. Hosts[0]
// and Hosts[1] carry the Client/Server aliases of the two-host figures;
// fabric experiments treat Hosts[1] as the server and every other host
// as a client (so the 1-client fabric is literally the two-host world).
type World struct {
	Eng  *sim.Engine
	Net  *netsim.Network
	CM   *cost.Model
	Topo netsim.Topology

	Hosts  []*cpusim.Host
	Client *cpusim.Host // Hosts[0]
	Server *cpusim.Host // Hosts[1]

	// Audit is the wire-compliance auditor tapping Net: nil unless the
	// world was built by an audited point (RunOptions.Audit) or by the
	// chaos battery, which always audits (see audit.go). Purely an
	// observer: artifacts are byte-identical with or without it.
	Audit *audit.Auditor

	// Check, when non-nil, observes every RPC payload the fabric
	// wirings' application layer accepts (client and server sides,
	// before decoding). The chaos battery uses it to prove fail-closed
	// behavior: a stack that lets the network's tampering through shows
	// up here as a corrupted payload reaching the application.
	Check func(m []byte)
}

// checkDelivery feeds an accepted application payload to the Check hook.
func (w *World) checkDelivery(m []byte) {
	if w.Check != nil {
		w.Check(m)
	}
}

// NewWorld builds a fresh two-host back-to-back testbed (the paper's §5
// configuration) with a deterministic seed.
func NewWorld(seed int64) *World {
	return NewFabricWorld(seed, netsim.Topology{Hosts: 2})
}

// NewFabricWorld builds a testbed of topo.Hosts hosts wired by topo
// (ideal back-to-back links, or an output-queued switch when topo.Switch
// is set). Host i sits at wire.HostAddr(i) with the standard core
// counts.
func NewFabricWorld(seed int64, topo netsim.Topology) *World {
	eng := sim.NewEngine(seed)
	cm := cost.Default()
	net := topo.Build(eng, cm)
	w := &World{Eng: eng, Net: net, CM: cm, Topo: topo}
	for i := 0; i < topo.Hosts; i++ {
		w.Hosts = append(w.Hosts, cpusim.NewHost(eng, cm, net, wire.HostAddr(i), StackCores, AppThreads))
	}
	w.Client, w.Server = w.Hosts[0], w.Hosts[1]
	return w
}

// ClientHosts returns the fabric clients: every host except the server
// (Hosts[1]), ordered Hosts[0], Hosts[2], Hosts[3], ... so that the
// one-client fabric uses exactly the two-host world's client.
func (w *World) ClientHosts() []*cpusim.Host {
	clients := make([]*cpusim.Host, 0, len(w.Hosts)-1)
	clients = append(clients, w.Hosts[0])
	clients = append(clients, w.Hosts[2:]...)
	return clients
}

// System is one line in the evaluation figures: a name plus a setup
// function that wires an echo service and returns the request issuer.
type System struct {
	Name string
	// Setup builds server+client endpoints for `streams` concurrent RPC
	// streams under the given MTU. done is called on the client when a
	// response arrives; issue sends a request on a stream. Setup may run
	// the engine to pre-establish connections (as the paper's harness
	// pre-establishes before measuring). A wiring failure (key material,
	// session registration) is an error return, never a panic.
	Setup func(w *World, streams, mtu int, noTSO bool, done func(reqID uint64)) (issue func(stream int, reqID uint64, size, respSize int), err error)
}

// FabricConfig parameterizes a FabricSystem's wiring.
type FabricConfig struct {
	// StreamsPerClient is the number of concurrent RPC streams each
	// client host drives.
	StreamsPerClient int
	// MTU is the wire MTU (0 = DefaultMTU).
	MTU int
	// NoTSO makes the stack cut packets in software (Fig. 11 ablation).
	NoTSO bool
}

// FabricSystem is a System generalized to N hosts: Setup wires one echo
// server and one client endpoint per host in clients, and returns an
// issuer addressed by (client, stream). The two-host System of the §5
// figures is the clients=[Hosts[0]] special case (see System()).
// A FabricSystem is composed from a StackSpec by BuildFabric (stack.go).
type FabricSystem struct {
	Name string
	// Setup wires the echo service on server and a client endpoint on
	// every host in clients. done is invoked on the issuing client's
	// host when that client's request reqID completes. Wiring failures
	// are error returns, never panics.
	Setup func(w *World, clients []*cpusim.Host, server *cpusim.Host, cfg FabricConfig, done func(client int, reqID uint64)) (issue func(client, stream int, reqID uint64, size, respSize int), err error)
}

// System adapts the fabric wiring to the two-host harness: client =
// Hosts[0], server = Hosts[1]. Every §5 figure runs through this
// adapter, so the two-host numbers come from the same code path as the
// fabric experiments.
func (f FabricSystem) System() System {
	return System{Name: f.Name, Setup: func(w *World, streams, mtu int, noTSO bool, done func(uint64)) (func(int, uint64, int, int), error) {
		issue, err := f.Setup(w, []*cpusim.Host{w.Client}, w.Server,
			FabricConfig{StreamsPerClient: streams, MTU: mtu, NoTSO: noTSO},
			func(_ int, reqID uint64) { done(reqID) })
		if err != nil {
			return nil, err
		}
		return func(stream int, reqID uint64, size, respSize int) {
			issue(0, stream, reqID, size, respSize)
		}, nil
	}}
}

// serverThreads is the echo server's app-thread pool: message
// transports deliver into it, bytestream accepts rotate through it.
func serverThreads() []int {
	threads := make([]int, AppThreads)
	for i := range threads {
		threads[i] = i
	}
	return threads
}

// --- the shared transport wiring of every harness ---

// handler serves one request payload that arrived on a server app
// thread; to addresses the response. The payload is borrowed for the
// duration of the call.
type handler func(appThread int, payload []byte, to replyTo)

// replyTo addresses a response to the sender of one request: the
// accepted connection on the bytestream, the source endpoint on the
// message transport.
type replyTo struct {
	conn   *tcpsim.Conn
	sock   msgSock
	addr   uint32
	port   uint16
	thread int
}

func (r replyTo) send(payload []byte) {
	if r.conn != nil {
		r.conn.SendMessage(payload)
		return
	}
	r.sock.Send(r.addr, r.port, payload, r.thread)
}

// msgSock is a message-transport endpoint: a plain homa.Socket or an
// SMT core.Socket.
type msgSock interface {
	OnMessage(func(homa.Delivery))
	Send(dst uint32, port uint16, payload []byte, thread int) uint64
	Port() uint16
	Close()
}

// newMsgSock binds one message-transport endpoint for sw on host.
func (sw stackWiring) newMsgSock(host *cpusim.Host, cfg homa.Config) msgSock {
	if sw.smt {
		return core.NewSocket(host, core.Config{Transport: cfg, HWOffload: sw.hw})
	}
	return homa.NewSocket(host, cfg, nil)
}

// serveMsg hands every request arriving at a server socket to h.
func serveMsg(s msgSock, h handler) {
	s.OnMessage(func(d homa.Delivery) {
		h(d.AppThread, d.Payload, replyTo{sock: s, addr: d.Src, port: d.SrcPort, thread: d.AppThread})
	})
}

// serveConn hands every request arriving on an accepted connection to h.
func serveConn(c *tcpsim.Conn, h handler) {
	c.OnMessage(func(m []byte) { h(c.AppThread(), m, replyTo{conn: c}) })
}

// echoServer is the RPC echo service of the fabric wirings and the
// Dialer: it charges AppLogic on the delivering app thread and answers
// with a response of the requested size.
type echoServer struct {
	w    *World
	host *cpusim.Host
	// buf is the world's RPC-payload scratch for requests and
	// responses alike: the transports copy the payload synchronously
	// in Send, and the whole world runs on one goroutine, so one
	// buffer serves every send.
	buf []byte
}

func (e *echoServer) serve(appThread int, payload []byte, to replyTo) {
	e.w.checkDelivery(payload)
	id, respSize, err := rpc.Decode(payload)
	if err != nil {
		return
	}
	e.host.RunApp(appThread, e.w.CM.AppLogic, func() {
		e.buf = rpc.AppendEncode(e.buf, id, 0, int(respSize))
		to.send(e.buf)
	})
}

// request encodes an echo request into the scratch buffer.
func (e *echoServer) request(reqID uint64, size, respSize int) []byte {
	e.buf = rpc.AppendEncode(e.buf, reqID, uint32(respSize), size)
	return e.buf
}

// echoResponse hands an accepted echo response's request ID to done.
func (w *World) echoResponse(m []byte, done func(reqID uint64)) {
	w.checkDelivery(m)
	if id, _, err := rpc.Decode(m); err == nil {
		done(id)
	}
}

// service is what a harness runs over a wiring: the server's request
// handler and the app threads it runs on, the clients' response
// handler, and the seed of the pre-paired SMT session keys (client i
// pairs with seed pairSeed+i).
type service struct {
	threads  []int
	pairSeed byte
	serve    handler
	onResp   func(client int, m []byte)
}

// wire binds svc for sw: the server endpoint on server and
// cfg.StreamsPerClient client streams on every host in clients, with
// encrypted sessions pre-paired — exactly as the paper's harness
// pre-establishes connections before measuring. On the message
// transport every client has one socket sharing core.PairSessions keys
// with the server (one TLS handshake per flow, §4.2); on the bytestream
// every stream is its own connection with its own ktls.ConnKeys codecs,
// established before wire returns. send issues a request payload on
// one client's stream.
func (sw stackWiring) wire(w *World, clients []*cpusim.Host, server *cpusim.Host, cfg FabricConfig, svc service) (send func(client, stream int, payload []byte), err error) {
	if sw.msg {
		srv := sw.newMsgSock(server, homa.Config{Port: ServerPort, MTU: cfg.MTU, NoTSO: cfg.NoTSO, AppThreads: svc.threads})
		serveMsg(srv, svc.serve)
		clis := make([]msgSock, len(clients))
		for ci, ch := range clients {
			cli := sw.newMsgSock(ch, homa.Config{MTU: cfg.MTU, NoTSO: cfg.NoTSO})
			if c, ok := cli.(*core.Socket); ok {
				if err := core.PairSessions(c, c.Port(), srv.(*core.Socket), ServerPort, svc.pairSeed+byte(ci)); err != nil {
					return nil, fmt.Errorf("%s: pair sessions for client %d: %w", sw.name, ci, err)
				}
			}
			cli.OnMessage(func(d homa.Delivery) { svc.onResp(ci, d.Payload) })
			clis[ci] = cli
		}
		return func(client, stream int, payload []byte) {
			clis[client].Send(server.Addr, ServerPort, payload, stream%AppThreads)
		}, nil
	}
	tcfg := tcpsim.Config{MTU: cfg.MTU}
	next := 0
	tcpsim.Listen(server, serverPortK, tcfg, sw.rec.serverCodec(w.CM), func() int {
		t := svc.threads[next]
		next = (next + 1) % len(svc.threads)
		return t
	}, func(c *tcpsim.Conn) { serveConn(c, svc.serve) })
	conns := make([][]*tcpsim.Conn, len(clients))
	for ci, ch := range clients {
		conns[ci] = make([]*tcpsim.Conn, cfg.StreamsPerClient)
		for i := range conns[ci] {
			c := tcpsim.Dial(ch, i%AppThreads, tcfg, sw.rec.clientCodec(w.CM, ch.Addr), server.Addr, serverPortK, nil)
			c.OnMessage(func(m []byte) { svc.onResp(ci, m) })
			conns[ci][i] = c
		}
	}
	w.Eng.RunUntil(w.Eng.Now() + 5*sim.Millisecond)
	return func(client, stream int, payload []byte) {
		conns[client][stream].SendMessage(payload)
	}, nil
}

// mtuOrDefault resolves an MTU argument.
func mtuOrDefault(mtu int) int {
	if mtu == 0 {
		return wire.DefaultMTU
	}
	return mtu
}
