// Dialed connections: the live connect path that replaces pre-paired
// key installation (core.PairSessions / ktls.ConnKeys) with a real
// §4.5 key exchange run over the fabric in virtual time.
//
// Two pieces live here:
//
//   - Wire conduits (smtConduit, tcpConduit) that carry handshake
//     flights as wire.TypeHandshake packets through the simulated
//     network, so exchange latency reflects the actual fabric RTT and
//     the flights are visible to (and exempted by) the audit tap.
//   - The Dialer used by the churn experiment: per-connection dialing
//     under a HandshakePolicy (1-RTT, 0-RTT via dcdns ticket, or
//     session resumption), with app traffic admitted only after keys
//     are installed on both ends.
//
// The Dialer is the one dialed path. The figure experiments' fabric
// wirings pre-pair their long-lived sessions instead (world.go's wire),
// and TestDialedMatchesPrepaired pins that a dialed connection carries
// steady-state traffic at the same cost as a pre-paired one.
package experiments

import (
	"fmt"

	"smt/internal/core"
	"smt/internal/cpusim"
	"smt/internal/dcdns"
	"smt/internal/handshake"
	"smt/internal/homa"
	"smt/internal/ktls"
	"smt/internal/sim"
	"smt/internal/tcpsim"
	"smt/internal/wire"
)

// hsFiller backs every handshake flight's payload bytes. The flights'
// content is opaque to the simulation (only sizes and Table 2 costs
// matter); senders copy out of it synchronously and nothing writes it.
var hsFiller = make([]byte, handshake.FlightSHLOCert)

// hsKey identifies one in-flight exchange by the client half of the
// 4-tuple — unique per dialed connection, since every client socket
// and TCP connection allocates its own ephemeral port.
type hsKey struct {
	addr uint32
	port uint16
}

// flightRx reassembles one expected flight from its MTU-cut packets:
// deliver fires exactly once, when `want` bytes have arrived. Stray
// bytes after delivery (or before a flight is expected) are dropped.
type flightRx struct {
	want, got int
	deliver   func()
}

func (f *flightRx) expect(want int, deliver func()) {
	f.want, f.got, f.deliver = want, 0, deliver
}

func (f *flightRx) feed(n int) {
	f.got += n
	if f.deliver != nil && f.got >= f.want {
		fn := f.deliver
		f.deliver = nil
		fn()
	}
}

// --- SMT/homa conduit ---

// smtHsServer demultiplexes handshake flights arriving at one server
// core.Socket to their per-connection conduits. Handshake packets are
// NOT auto-released by the homa receive path, so the handlers release
// them here after reading the length.
type smtHsServer struct {
	srv     *core.Socket
	srvHost *cpusim.Host
	mtu     int
	pending map[hsKey]*smtConduit
}

func newSMTHsServer(srv *core.Socket, mtu int) *smtHsServer {
	h := &smtHsServer{srv: srv, srvHost: srv.Host(), mtu: mtuOrDefault(mtu), pending: make(map[hsKey]*smtConduit)}
	srv.OnHandshake(func(pkt *wire.Packet, _ int) {
		k := hsKey{pkt.IP.Src, pkt.Overlay.SrcPort}
		n := len(pkt.Payload)
		pkt.Release()
		if c := h.pending[k]; c != nil {
			c.toSrv.feed(n)
		}
	})
	return h
}

// exchange runs one key exchange between cli (bound on cliHost) and
// the server socket, flights carried over the fabric. done also fires
// on failure (Result.Err).
func (h *smtHsServer) exchange(cliHost *cpusim.Host, cli *core.Socket, opts handshake.Options, done func(handshake.Result)) error {
	k := hsKey{cliHost.Addr, cli.Port()}
	c := &smtConduit{h: h, cli: cli, key: k}
	cli.OnHandshake(func(pkt *wire.Packet, _ int) {
		n := len(pkt.Payload)
		pkt.Release()
		c.toCli.feed(n)
	})
	h.pending[k] = c
	return handshake.ExchangeOver(c, cliHost, h.srvHost, opts, func(res handshake.Result) {
		delete(h.pending, k)
		done(res)
	})
}

// smtConduit carries one exchange's flights as TypeHandshake packets
// between a client core.Socket and the shared server socket.
type smtConduit struct {
	h            *smtHsServer
	cli          *core.Socket
	key          hsKey
	toSrv, toCli flightRx
}

func (c *smtConduit) ToServer(size int, deliver func()) {
	c.toSrv.expect(size, deliver)
	sendHomaFlight(c.cli.Socket, c.h.mtu, c.h.srvHost.Addr, ServerPort, size)
}

func (c *smtConduit) ToClient(size int, deliver func()) {
	c.toCli.expect(size, deliver)
	sendHomaFlight(c.h.srv.Socket, c.h.mtu, c.key.addr, c.key.port, size)
}

// sendHomaFlight cuts a size-byte flight at the MTU and transmits the
// pieces as single-packet handshake sends.
func sendHomaFlight(s *homa.Socket, mtu int, dstAddr uint32, dstPort uint16, size int) {
	per := mtu - wire.IPv4HeaderLen - wire.OverlayHeaderLen
	for off := 0; off < size; off += per {
		n := size - off
		if n > per {
			n = per
		}
		s.SendHandshake(dstAddr, dstPort, hsFiller[:n], 0)
	}
}

// --- TCP conduit ---

// tcpConduit carries one exchange's flights over an established
// client/server tcpsim.Conn pair (Aux=3 handshake packets, outside
// the stream sequence space).
type tcpConduit struct {
	cli, srv     *tcpsim.Conn
	toSrv, toCli flightRx
}

func newTCPConduit(cli, srv *tcpsim.Conn) *tcpConduit {
	c := &tcpConduit{cli: cli, srv: srv}
	cli.OnHandshake(func(p []byte) { c.toCli.feed(len(p)) })
	srv.OnHandshake(func(p []byte) { c.toSrv.feed(len(p)) })
	return c
}

func (c *tcpConduit) ToServer(size int, deliver func()) {
	c.toSrv.expect(size, deliver)
	c.cli.SendHandshake(hsFiller[:size])
}

func (c *tcpConduit) ToClient(size int, deliver func()) {
	c.toCli.expect(size, deliver)
	c.srv.SendHandshake(hsFiller[:size])
}

// installStreamCodecs converts an exchange result to the kTLS key
// shape and installs the mirrored codecs on both connection ends.
func installStreamCodecs(w *World, rec *streamRecord, cliConn, srvConn *tcpsim.Conn, res handshake.Result) error {
	ck := ktls.Keys{TxKey: res.Client.TxKey, TxIV: res.Client.TxIV, RxKey: res.Client.RxKey, RxIV: res.Client.RxIV}
	sk := ktls.Keys{TxKey: res.Server.TxKey, TxIV: res.Server.TxIV, RxKey: res.Server.RxKey, RxIV: res.Server.RxIV}
	cc, err := rec.newCodec(w.CM, ck)
	if err != nil {
		return err
	}
	sc, err := rec.newCodec(w.CM, sk)
	if err != nil {
		return err
	}
	cliConn.SetCodec(cc)
	srvConn.SetCodec(sc)
	return nil
}

// --- churn dialer ---

// HandshakePolicy selects how a dialed churn connection establishes
// its keys.
type HandshakePolicy int

const (
	// HSNone: plaintext stack, no key exchange (transport setup only).
	HSNone HandshakePolicy = iota
	// HS1RTT: full 1-RTT exchange with certificate verification.
	HS1RTT
	// HS0RTT: 0-RTT init against the server's dcdns SMT-ticket; falls
	// back to nothing else — an expired ticket is re-minted by the
	// resolver (counted as a miss) and the exchange still runs 0-RTT.
	HS0RTT
	// HSResume: session resumption (Rsmp) from the client host's
	// cached resumption master secret; the first connection per client
	// host bootstraps with a 1-RTT exchange.
	HSResume
)

func (p HandshakePolicy) String() string {
	switch p {
	case HSNone:
		return "none"
	case HS1RTT:
		return "1rtt"
	case HS0RTT:
		return "0rtt"
	case HSResume:
		return "resume"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ChurnPolicyFor is the default policy per stack: SMT stacks dial
// 0-RTT off the dcdns ticket (§4.5's headline path), other encrypted
// stacks resume where they can, plaintext stacks skip the exchange.
func ChurnPolicyFor(spec StackSpec) HandshakePolicy {
	switch spec.Record {
	case RecordPlain:
		return HSNone
	case RecordSMTSW, RecordSMTHW:
		return HS0RTT
	default:
		return HSResume
	}
}

// dialService is the dcdns name the churn server registers under.
const dialService = "svc.smt"

// DialConfig parameterizes a Dialer.
type DialConfig struct {
	// Policy is the key-establishment policy (default per stack:
	// ChurnPolicyFor).
	Policy HandshakePolicy
	// TicketTTL is the dcdns rotation period (0 = dcdns.DefaultTTL).
	TicketTTL sim.Time
	// MTU is the wire MTU (0 = DefaultMTU).
	MTU int
}

// DialedConn is one live dialed connection.
type DialedConn struct {
	// Policy and TicketHit record how keys were established (TicketHit
	// is meaningful for HS0RTT only).
	Policy    HandshakePolicy
	TicketHit bool
	// Start/Ready bracket connection setup: Dial call to app-traffic
	// admission (transport + key exchange).
	Start, Ready sim.Time
	// Issue sends one request on the connection; responses arrive via
	// the Dial callback. Close tears the client endpoint down.
	Issue func(reqID uint64, size, respSize int)
	Close func()
}

// Dialer opens short-lived connections against one echo server,
// running the configured key exchange over the fabric before any app
// byte flows. One Dialer owns the server side for its whole world.
type Dialer struct {
	w      *World
	sw     stackWiring
	policy HandshakePolicy
	cfg    DialConfig
	echo   echoServer

	// Resolver is the dcdns instance serving the server's SMT-ticket
	// (HS0RTT); exported so the churn experiment reads its counters.
	Resolver *dcdns.Resolver
	serverID *handshake.Identity

	// hs carries SMT exchanges to the message-transport server socket.
	hs *smtHsServer

	// bytestream server side: accepted connections awaiting their
	// exchange, by client 4-tuple half
	tcfg     tcpsim.Config
	srvConns map[hsKey]*tcpsim.Conn

	// resumption master secrets by client host address (HSResume).
	resumption map[uint32][]byte

	nextThread    int
	nextSrvThread int

	// Dials/Established/Failed count connection outcomes; HsCliCPU and
	// HsSrvCPU accumulate Table 2 handshake CPU at each side.
	Dials, Established, Failed uint64
	HsCliCPU, HsSrvCPU         sim.Time
}

// NewDialer wires the server side of a dialed echo service for spec
// on w.Server and returns a Dialer for its clients. A spec outside the
// buildable matrix fails with resolve's error, as BuildFabric does;
// a policy the stack cannot run fails too.
func NewDialer(w *World, spec StackSpec, cfg DialConfig) (*Dialer, error) {
	sw, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	d := &Dialer{w: w, sw: sw, policy: cfg.Policy, cfg: cfg, echo: echoServer{w: w, host: w.Server}, resumption: make(map[uint32][]byte)}
	if err := d.validatePolicy(); err != nil {
		return nil, err
	}
	if d.policy != HSNone {
		id, err := handshake.NewIdentityRand(w.Eng.Rand())
		if err != nil {
			return nil, fmt.Errorf("dial %s: server identity: %w", sw.name, err)
		}
		d.serverID = id
		d.Resolver = dcdns.New(w.Eng, cfg.TicketTTL)
		if err := d.Resolver.Register(dialService, id); err != nil {
			return nil, fmt.Errorf("dial %s: %w", sw.name, err)
		}
	}
	if sw.msg {
		srv := sw.newMsgSock(w.Server, homa.Config{Port: ServerPort, MTU: cfg.MTU, AppThreads: serverThreads()})
		serveMsg(srv, d.echo.serve)
		if d.policy != HSNone {
			d.hs = newSMTHsServer(srv.(*core.Socket), cfg.MTU)
		}
		return d, nil
	}
	// Dialed connections start plaintext (nil codec factory) and get
	// their negotiated codec installed when the exchange completes; no
	// stream data flows before that.
	d.tcfg = tcpsim.Config{MTU: cfg.MTU}
	d.srvConns = make(map[hsKey]*tcpsim.Conn)
	tcpsim.Listen(w.Server, serverPortK, d.tcfg, nil, func() int {
		t := d.nextSrvThread
		d.nextSrvThread = (d.nextSrvThread + 1) % AppThreads
		return t
	}, func(c *tcpsim.Conn) {
		if d.policy != HSNone {
			d.srvConns[hsKey{c.PeerAddr(), c.PeerPort()}] = c
		}
		serveConn(c, d.echo.serve)
	})
	return d, nil
}

// validatePolicy rejects policy × stack combinations that have no
// meaning (a plaintext stack cannot run an exchange; SMT's 0-RTT
// ticket path is transport-integrated, the TCP family resumes). Past
// it, policy HSNone and a plaintext stack are the same condition.
func (d *Dialer) validatePolicy() error {
	switch {
	case !d.sw.encrypted():
		if d.policy != HSNone {
			return fmt.Errorf("dial %s: plaintext stack cannot use policy %v", d.sw.name, d.policy)
		}
	case d.sw.smt:
		if d.policy != HS0RTT && d.policy != HS1RTT {
			return fmt.Errorf("dial %s: SMT stack supports 0rtt/1rtt, not %v", d.sw.name, d.policy)
		}
	default:
		if d.policy != HSResume && d.policy != HS1RTT {
			return fmt.Errorf("dial %s: stream stack supports resume/1rtt, not %v", d.sw.name, d.policy)
		}
	}
	return nil
}

// exchangeOptions assembles the Options for one dialed connection and
// reports whether the dcdns lookup hit (HS0RTT). The resolver re-mints
// expired tickets (counted as a miss), so the exchange always has a
// valid ticket to run against.
func (d *Dialer) exchangeOptions(client *cpusim.Host, cliThread int) (handshake.Options, bool, error) {
	opts := handshake.Options{
		ServerID:  d.serverID,
		CliThread: cliThread, SrvThread: d.nextSrvThread,
	}
	d.nextSrvThread = (d.nextSrvThread + 1) % AppThreads
	hit := false
	switch d.policy {
	case HS1RTT:
		opts.Mode = handshake.Init1RTT
	case HS0RTT:
		tk, h, err := d.Resolver.Query(dialService)
		if err != nil {
			return opts, false, err
		}
		hit = h
		opts.Mode = handshake.Init0RTT
		opts.Ticket = tk
		opts.PreGeneratedKeys = true
		opts.ShortChain = true
	case HSResume:
		if prior := d.resumption[client.Addr]; prior != nil {
			opts.Mode = handshake.Rsmp
			opts.PriorSecret = prior
			opts.PreGeneratedKeys = true
		} else {
			opts.Mode = handshake.Init1RTT // bootstrap; caches Master below
		}
	}
	return opts, hit, nil
}

func (d *Dialer) noteResult(client *cpusim.Host, res handshake.Result) {
	d.HsCliCPU += res.CliCPU
	d.HsSrvCPU += res.SrvCPU
	if res.Err == nil && res.Master != nil {
		d.resumption[client.Addr] = res.Master
	}
}

// Dial opens one connection from client. onResp fires for each echo
// response on the connection; onReady fires once the connection can
// carry app traffic (conn.Ready set), or with err on failure. The
// returned DialedConn is only usable inside onReady.
func (d *Dialer) Dial(client *cpusim.Host, onResp func(reqID uint64), onReady func(conn *DialedConn, err error)) {
	d.Dials++
	start := d.w.Eng.Now()
	thread := d.nextThread
	d.nextThread = (d.nextThread + 1) % AppThreads
	conn := &DialedConn{Policy: d.policy, Start: start}
	ready := func(err error) {
		if err != nil {
			d.Failed++
			onReady(nil, err)
			return
		}
		d.Established++
		conn.Ready = d.w.Eng.Now()
		onReady(conn, nil)
	}
	if d.sw.msg {
		d.dialMsg(client, thread, conn, onResp, ready)
	} else {
		d.dialTCP(client, thread, conn, onResp, ready)
	}
}

func (d *Dialer) dialMsg(client *cpusim.Host, thread int, conn *DialedConn, onResp func(uint64), ready func(error)) {
	cli := d.sw.newMsgSock(client, homa.Config{MTU: d.cfg.MTU})
	cli.OnMessage(func(dv homa.Delivery) { d.w.echoResponse(dv.Payload, onResp) })
	conn.Issue = func(reqID uint64, size, respSize int) {
		cli.Send(d.w.Server.Addr, ServerPort, d.echo.request(reqID, size, respSize), thread)
	}
	conn.Close = cli.Close
	if d.policy == HSNone {
		ready(nil) // connectionless: usable immediately
		return
	}
	opts, hit, err := d.exchangeOptions(client, thread)
	if err != nil {
		ready(err)
		return
	}
	conn.TicketHit = hit
	smtCli := cli.(*core.Socket)
	err = d.hs.exchange(client, smtCli, opts, func(res handshake.Result) {
		d.noteResult(client, res)
		if res.Err != nil {
			ready(res.Err)
			return
		}
		if _, err := smtCli.RegisterSession(d.w.Server.Addr, ServerPort, res.Client); err != nil {
			ready(err)
			return
		}
		if _, err := d.hs.srv.RegisterSession(client.Addr, cli.Port(), res.Server); err != nil {
			ready(err)
			return
		}
		ready(nil)
	})
	if err != nil {
		ready(err)
	}
}

func (d *Dialer) dialTCP(client *cpusim.Host, thread int, conn *DialedConn, onResp func(uint64), ready func(error)) {
	c := tcpsim.Dial(client, thread, d.tcfg, nil, d.w.Server.Addr, serverPortK, func(cliConn *tcpsim.Conn) {
		if d.policy == HSNone {
			ready(nil)
			return
		}
		k := hsKey{client.Addr, cliConn.LocalPort()}
		srvConn := d.srvConns[k]
		delete(d.srvConns, k)
		if srvConn == nil {
			ready(fmt.Errorf("dial %s: SYN-ACK with no accepted server conn", d.sw.name))
			return
		}
		opts, _, err := d.exchangeOptions(client, cliConn.AppThread())
		if err != nil {
			ready(err)
			return
		}
		opts.SrvThread = srvConn.AppThread()
		conduit := newTCPConduit(cliConn, srvConn)
		err = handshake.ExchangeOver(conduit, client, d.w.Server, opts, func(res handshake.Result) {
			d.noteResult(client, res)
			if res.Err != nil {
				ready(res.Err)
				return
			}
			if err := installStreamCodecs(d.w, d.sw.rec, cliConn, srvConn, res); err != nil {
				ready(err)
				return
			}
			ready(nil)
		})
		if err != nil {
			ready(err)
		}
	})
	c.OnMessage(func(m []byte) { d.w.echoResponse(m, onResp) })
	conn.Issue = func(reqID uint64, size, respSize int) {
		c.SendMessage(d.echo.request(reqID, size, respSize))
	}
	conn.Close = c.Close
}
