package experiments

import (
	"fmt"
	"sort"
	"strings"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/ktls"
	"smt/internal/tcpls"
	"smt/internal/tcpsim"
)

// This file is the composable stack registry: the paper's design-space
// decomposition (Table 1) as an API. A stack under test is not an opaque
// closure but a StackSpec — a transport crossed with a record layer.
// resolve places a spec in that matrix once, and the harnesses
// (BuildFabric, BuildRedis, NewDialer) wire the result from the shared
// per-transport constructors in world.go. The runnable matrix is
// therefore open: every registered spec runs on every World shape
// (two-host and switched fabric), and combinations the decomposition
// cannot express (a bytestream record layer on a message transport, or
// SMT's transport-integrated records over TCP) are rejected by resolve
// with a descriptive error instead of silently not existing.

// Transport selects the layer that moves bytes or messages between
// hosts.
type Transport string

// Transports.
const (
	// TransportTCP is the kernel bytestream: per-connection ordering,
	// TSO/GRO, RTO/fast-retransmit loss recovery (internal/tcpsim).
	TransportTCP Transport = "tcp"
	// TransportHoma is the receiver-driven message transport
	// (internal/homa): SRPT scheduling, RESEND-based recovery, no
	// connections.
	TransportHoma Transport = "homa"
)

// RecordLayer selects the encryption placement layered over (or into)
// the transport.
type RecordLayer string

// Record layers.
const (
	// RecordPlain is no encryption (the TCP / Homa baselines).
	RecordPlain RecordLayer = "plain"
	// RecordUserTLS is user-space TLS over the bytestream: kTLS-sw
	// crypto plus an extra user-space copy and per-record syscalls
	// (Redis's stock configuration, §5.3).
	RecordUserTLS RecordLayer = "tls-user"
	// RecordKTLSSW is kernel TLS with software crypto.
	RecordKTLSSW RecordLayer = "ktls-sw"
	// RecordKTLSHW is kernel TLS with NIC autonomous offload on transmit.
	RecordKTLSHW RecordLayer = "ktls-hw"
	// RecordTCPLS is TCPLS: TLS records with in-record stream
	// multiplexing, software-only by construction (§5.5).
	RecordTCPLS RecordLayer = "tcpls"
	// RecordSMTSW / RecordSMTHW are the paper's transport-integrated
	// records (per-message sequence spaces, §4) in software / with NIC
	// offload. They extend the message transport and have no bytestream
	// form.
	RecordSMTSW RecordLayer = "smt-sw"
	RecordSMTHW RecordLayer = "smt-hw"
)

// StackSpec names one cell of the transport × record-layer matrix.
type StackSpec struct {
	// Name is the registry key and the System name experiments report
	// (e.g. "kTLS-sw"). Empty Name defaults to "transport+record".
	Name      string      `json:"name"`
	Transport Transport   `json:"transport"`
	Record    RecordLayer `json:"record"`
}

// name resolves the spec's display name.
func (s StackSpec) name() string {
	if s.Name != "" {
		return s.Name
	}
	return string(s.Transport) + "+" + string(s.Record)
}

// String renders the spec as "Name (transport × record)".
func (s StackSpec) String() string {
	return fmt.Sprintf("%s (%s × %s)", s.name(), s.Transport, s.Record)
}

// streamRecord is the bytestream half of a TCP-family stack: an HKDF
// label scoping its per-connection keys plus the codec constructor the
// transport invokes once per connection end.
type streamRecord struct {
	label    string
	newCodec func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error)
}

// validate constructs a probe codec pair so key-material or constructor
// errors surface as error returns from resolve instead of failing later
// inside a tcpsim accept path that cannot return one.
func (r *streamRecord) validate(cm *cost.Model) error {
	ck, sk := ktls.ConnKeys(r.label, 0, 0)
	if _, err := r.newCodec(cm, ck); err != nil {
		return fmt.Errorf("record layer %s: client codec: %w", r.label, err)
	}
	if _, err := r.newCodec(cm, sk); err != nil {
		return fmt.Errorf("record layer %s: server codec: %w", r.label, err)
	}
	return nil
}

// mustCodec builds one connection end's codec after validate has proven
// the constructor sound for this record layer's key shape; a failure
// here is a programming error, not a runtime condition.
func (r *streamRecord) mustCodec(cm *cost.Model, keys ktls.Keys) tcpsim.Codec {
	c, err := r.newCodec(cm, keys)
	if err != nil {
		//smt:allow panic -- resolve validated the record layer; failing after validation is a programming error
		panic(fmt.Sprintf("experiments: %s codec failed after validation: %v", r.label, err))
	}
	return c
}

// serverCodec and clientCodec are the pre-paired codec factories of a
// bytestream server (tcpsim.Listen) and of one client host's
// connections (tcpsim.Dial). Each connection derives its own mirrored
// key material from the record layer's label and the client half of
// the 4-tuple (ktls.ConnKeys), so no two connections in any world share
// keys. Plain TCP (nil r) has no codec.
func (r *streamRecord) serverCodec(cm *cost.Model) func(peerAddr uint32, peerPort uint16) tcpsim.Codec {
	if r == nil {
		return nil
	}
	return func(peerAddr uint32, peerPort uint16) tcpsim.Codec {
		_, sk := ktls.ConnKeys(r.label, peerAddr, peerPort)
		return r.mustCodec(cm, sk)
	}
}

func (r *streamRecord) clientCodec(cm *cost.Model, addr uint32) func(localPort uint16) tcpsim.Codec {
	if r == nil {
		return nil
	}
	return func(localPort uint16) tcpsim.Codec {
		ck, _ := ktls.ConnKeys(r.label, addr, localPort)
		return r.mustCodec(cm, ck)
	}
}

// stackWiring is a spec resolved against the transport × record-layer
// matrix: everything the harnesses (BuildFabric, BuildRedis, NewDialer)
// need to know to wire it.
type stackWiring struct {
	name string
	msg  bool          // homa message transport; the tcp bytestream otherwise
	smt  bool          // SMT records integrated into the message transport
	hw   bool          // SMT-hw: NIC offload on transmit
	rec  *streamRecord // bytestream record layer; nil is plaintext
}

// encrypted reports whether the stack protects its payloads.
func (sw stackWiring) encrypted() bool { return sw.smt || sw.rec != nil }

// resolve places spec in the transport × record-layer matrix. It is the
// one place the matrix is decided: a combination the decomposition
// cannot express returns a descriptive error here, and every harness
// returns that error as is.
func resolve(spec StackSpec) (stackWiring, error) {
	sw := stackWiring{name: spec.name()}
	switch spec.Transport {
	case TransportTCP:
	case TransportHoma:
		sw.msg = true
	default:
		return sw, fmt.Errorf("stack %s: unknown transport %q (have tcp, homa)", sw.name, spec.Transport)
	}
	ktlsRec := func(mode ktls.Mode) *streamRecord {
		return &streamRecord{label: string(spec.Record), newCodec: func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error) {
			return ktls.New(cm, mode, keys)
		}}
	}
	switch spec.Record {
	case RecordPlain:
	case RecordUserTLS:
		sw.rec = ktlsRec(ktls.ModeUserTLS)
	case RecordKTLSSW:
		sw.rec = ktlsRec(ktls.ModeKTLSSW)
	case RecordKTLSHW:
		sw.rec = ktlsRec(ktls.ModeKTLSHW)
	case RecordTCPLS:
		sw.rec = &streamRecord{label: string(RecordTCPLS), newCodec: func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error) {
			return tcpls.New(cm, keys)
		}}
	case RecordSMTSW, RecordSMTHW:
		sw.smt, sw.hw = true, spec.Record == RecordSMTHW
	default:
		return sw, fmt.Errorf("stack %s: unknown record layer %q (have plain, tls-user, ktls-sw, ktls-hw, tcpls, smt-sw, smt-hw)", sw.name, spec.Record)
	}
	switch {
	case sw.smt && !sw.msg:
		return sw, fmt.Errorf("stack %s: record layer %q is transport-integrated encryption — it extends the homa message transport's per-message sequence space (§4) and has no bytestream form over tcp", sw.name, spec.Record)
	case sw.rec != nil && sw.msg:
		return sw, fmt.Errorf("stack %s: record layer %q protects a TCP bytestream; the homa transport delivers whole messages with no byte sequence to cut records from — use smt-sw or smt-hw for encryption integrated into the message transport", sw.name, spec.Record)
	case sw.rec != nil:
		if err := sw.rec.validate(cost.Default()); err != nil {
			return sw, fmt.Errorf("stack %s: %w", sw.name, err)
		}
	}
	return sw, nil
}

// BuildFabric composes a runnable FabricSystem from a spec: the echo
// service (echoServer) over the spec's transport wiring (world.go). A
// combination the decomposition cannot express returns resolve's
// descriptive error; nothing in the build path panics on bad input.
func BuildFabric(spec StackSpec) (FabricSystem, error) { return buildFabric(spec, nil) }

// buildFabric is BuildFabric for a registry point: when a is on, the
// composed Setup attaches an auditor to the world it wires before any
// traffic flows.
func buildFabric(spec StackSpec, a *auditScope) (FabricSystem, error) {
	sw, err := resolve(spec)
	if err != nil {
		return FabricSystem{}, err
	}
	return FabricSystem{Name: sw.name, Setup: func(w *World, clients []*cpusim.Host, server *cpusim.Host, cfg FabricConfig, done func(int, uint64)) (func(int, int, uint64, int, int), error) {
		a.attach(w, sw.encrypted())
		echo := &echoServer{w: w, host: server}
		send, err := sw.wire(w, clients, server, cfg, service{
			threads: serverThreads(), pairSeed: 11, serve: echo.serve,
			onResp: func(client int, m []byte) {
				w.echoResponse(m, func(reqID uint64) { done(client, reqID) })
			},
		})
		if err != nil {
			return nil, err
		}
		return func(client, stream int, reqID uint64, size, respSize int) {
			send(client, stream, echo.request(reqID, size, respSize))
		}, nil
	}}, nil
}

// BuildSystem composes the two-host System adapter for a spec.
func BuildSystem(spec StackSpec) (System, error) {
	f, err := BuildFabric(spec)
	if err != nil {
		return System{}, err
	}
	return f.System(), nil
}

// --- the named-stack registry ---

// stackTable is the named-stack registry, in catalogue order. Lookup is
// case-insensitive; TestStackCatalogue pins the names unique under that
// comparison, and TestStackCrossProductSmoke builds and runs every
// entry on both World shapes.
var stackTable = []StackSpec{
	{Name: "TCP", Transport: TransportTCP, Record: RecordPlain},
	{Name: "kTLS-sw", Transport: TransportTCP, Record: RecordKTLSSW},
	{Name: "kTLS-hw", Transport: TransportTCP, Record: RecordKTLSHW},
	{Name: "TLS", Transport: TransportTCP, Record: RecordUserTLS},
	{Name: "TCPLS", Transport: TransportTCP, Record: RecordTCPLS},
	{Name: "Homa", Transport: TransportHoma, Record: RecordPlain},
	{Name: "SMT-sw", Transport: TransportHoma, Record: RecordSMTSW},
	{Name: "SMT-hw", Transport: TransportHoma, Record: RecordSMTHW},
}

// LookupStack resolves a registered stack by name (case-insensitive).
func LookupStack(name string) (StackSpec, bool) {
	name = strings.TrimSpace(name)
	for _, s := range stackTable {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return StackSpec{}, false
}

// Stacks returns every registered spec in catalogue order.
func Stacks() []StackSpec { return append([]StackSpec(nil), stackTable...) }

// StackNames returns the registered stack names, sorted.
func StackNames() []string {
	names := make([]string, len(stackTable))
	for i, s := range stackTable {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// mustStack resolves a name in stackTable; for lineup definitions only.
func mustStack(name string) StackSpec {
	s, ok := LookupStack(name)
	if !ok {
		//smt:allow panic -- lookup of a built-in lineup name; a missing name is a stackTable bug
		panic("experiments: stack " + name + " not registered")
	}
	return s
}

// DefaultLineup is the six-stack lineup of the §5 figures. Its registry
// artifacts are pinned bit-identical by TestGoldenTwoHostRTT and the
// determinism battery.
func DefaultLineup() []StackSpec {
	return []StackSpec{
		mustStack("TCP"), mustStack("kTLS-sw"), mustStack("kTLS-hw"),
		mustStack("Homa"), mustStack("SMT-sw"), mustStack("SMT-hw"),
	}
}

// RedisLineup is the §5.3 seven-stack lineup: the default six plus
// user-space TLS (Redis's stock configuration), in the Fig8Systems
// order.
func RedisLineup() []StackSpec {
	return []StackSpec{
		mustStack("TCP"), mustStack("TLS"), mustStack("kTLS-sw"), mustStack("kTLS-hw"),
		mustStack("Homa"), mustStack("SMT-sw"), mustStack("SMT-hw"),
	}
}

// lineupOrDefault resolves a lineup selection (RunOptions.Stacks);
// nil or empty means DefaultLineup.
func lineupOrDefault(stacks []StackSpec) []StackSpec {
	if len(stacks) == 0 {
		return DefaultLineup()
	}
	return stacks
}

// ParseStacks resolves a comma-separated stack-name list ("TCP,
// TCPLS, SMT-hw", case-insensitive) against the registry. A name may
// appear once: a repeat would emit every point key of a sweep twice.
func ParseStacks(arg string) ([]StackSpec, error) {
	var specs []StackSpec
	seen := map[string]bool{}
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		s, ok := LookupStack(n)
		if !ok {
			return nil, fmt.Errorf("unknown stack %q (have: %s)", n, strings.Join(StackNames(), ", "))
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("stack %q listed twice in %q", n, arg)
		}
		seen[s.Name] = true
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no stack names in %q (have: %s)", arg, strings.Join(StackNames(), ", "))
	}
	return specs, nil
}
