package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/ktls"
	"smt/internal/tcpls"
	"smt/internal/tcpsim"
)

// This file is the composable stack registry: the paper's design-space
// decomposition (Table 1) as an API. A stack under test is not an opaque
// closure but a StackSpec — a transport crossed with a record layer —
// and BuildFabric composes the two from small per-layer constructors.
// The runnable matrix is therefore open: every registered spec runs on
// every World shape (two-host and switched fabric), and combinations the
// decomposition cannot express (a bytestream record layer on a message
// transport, or SMT's transport-integrated records over TCP) are
// rejected by the builder with a descriptive error instead of silently
// not existing.

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
// errors surface as error returns (from BuildFabric and Setup) instead
// of failing later inside a tcpsim accept path that cannot return one.
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
		//smt:allow panic -- the spec was validated at RegisterStack; failing after validation is a programming error
		panic(fmt.Sprintf("experiments: %s codec failed after validation: %v", r.label, err))
	}
	return c
}

// streamRecordFor maps a spec onto its bytestream record constructor;
// nil means plaintext. Specs whose record layer has no bytestream form
// get a descriptive error.
func streamRecordFor(spec StackSpec) (*streamRecord, error) {
	ktlsRec := func(mode ktls.Mode) *streamRecord {
		return &streamRecord{label: string(spec.Record), newCodec: func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error) {
			return ktls.New(cm, mode, keys)
		}}
	}
	switch spec.Record {
	case RecordPlain:
		return nil, nil
	case RecordUserTLS:
		return ktlsRec(ktls.ModeUserTLS), nil
	case RecordKTLSSW:
		return ktlsRec(ktls.ModeKTLSSW), nil
	case RecordKTLSHW:
		return ktlsRec(ktls.ModeKTLSHW), nil
	case RecordTCPLS:
		return &streamRecord{label: string(RecordTCPLS), newCodec: func(cm *cost.Model, keys ktls.Keys) (tcpsim.Codec, error) {
			return tcpls.New(cm, keys)
		}}, nil
	case RecordSMTSW, RecordSMTHW:
		return nil, fmt.Errorf("stack %s: record layer %q is transport-integrated encryption — it extends the homa message transport's per-message sequence space (§4) and has no bytestream form over tcp", spec.name(), spec.Record)
	default:
		return nil, fmt.Errorf("stack %s: unknown record layer %q (have plain, tls-user, ktls-sw, ktls-hw, tcpls, smt-sw, smt-hw)", spec.name(), spec.Record)
	}
}

// BuildFabric composes a runnable FabricSystem from a spec: the
// transport wiring from the transport constructors in world.go, the
// codec/session setup from the record-layer constructors above. A
// combination the decomposition cannot express returns a descriptive
// error; nothing in the build path panics on bad input.
//
// The composed Setup also declares the spec's encryption policy to the
// world's wire auditor (when one is attached): plain record layers are
// allowed plaintext on the wire, everything else must show ciphertext.
func BuildFabric(spec StackSpec) (FabricSystem, error) {
	f, err := buildFabric(spec)
	if err != nil {
		return FabricSystem{}, err
	}
	return withAuditPolicy(f, spec.Record != RecordPlain), nil
}

// withAuditPolicy wraps a fabric Setup so the world's auditor (if any)
// learns whether this stack's data path is expected to be ciphertext
// before any traffic flows.
func withAuditPolicy(f FabricSystem, encrypted bool) FabricSystem {
	inner := f.Setup
	f.Setup = func(w *World, clients []*cpusim.Host, server *cpusim.Host, cfg FabricConfig, done func(int, uint64)) (func(int, int, uint64, int, int), error) {
		if w.Audit != nil {
			w.Audit.SetExpectCiphertext(encrypted)
		}
		return inner(w, clients, server, cfg, done)
	}
	return f
}

// buildFabric is BuildFabric without the audit-policy wrapper.
func buildFabric(spec StackSpec) (FabricSystem, error) {
	switch spec.Transport {
	case TransportTCP:
		rec, err := streamRecordFor(spec)
		if err != nil {
			return FabricSystem{}, err
		}
		if rec != nil {
			if err := rec.validate(cost.Default()); err != nil {
				return FabricSystem{}, fmt.Errorf("stack %s: %w", spec.name(), err)
			}
		}
		return tcpFabricFamily(spec.name(), rec), nil
	case TransportHoma:
		switch spec.Record {
		case RecordPlain:
			return homaFabric(spec.name()), nil
		case RecordSMTSW:
			return smtFabric(spec.name(), false), nil
		case RecordSMTHW:
			return smtFabric(spec.name(), true), nil
		case RecordUserTLS, RecordKTLSSW, RecordKTLSHW, RecordTCPLS:
			return FabricSystem{}, fmt.Errorf("stack %s: record layer %q protects a TCP bytestream; the homa transport delivers whole messages with no byte sequence to cut records from — use smt-sw or smt-hw for encryption integrated into the message transport", spec.name(), spec.Record)
		default:
			return FabricSystem{}, fmt.Errorf("stack %s: unknown record layer %q", spec.name(), spec.Record)
		}
	default:
		return FabricSystem{}, fmt.Errorf("stack %s: unknown transport %q (have tcp, homa)", spec.name(), spec.Transport)
	}
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

var (
	stackMu    sync.RWMutex
	stackByKey = map[string]StackSpec{} // lower(Name) -> spec
	stackSeq   []string                 // canonical names in registration order
)

// RegisterStack adds a named spec to the stack registry. Like Register
// for experiments it panics on an empty or duplicate name, and also on a
// spec BuildFabric rejects — registration is an init-time contract that
// every listed stack is runnable.
func RegisterStack(spec StackSpec) {
	name := spec.name()
	if _, err := BuildFabric(spec); err != nil {
		//smt:allow panic -- init-time registration contract: every registered stack must build
		panic("experiments: RegisterStack " + name + ": " + err.Error())
	}
	key := strings.ToLower(name)
	stackMu.Lock()
	defer stackMu.Unlock()
	if _, dup := stackByKey[key]; dup {
		//smt:allow panic -- init-time registration contract; a duplicate would silently shadow a stack
		panic("experiments: duplicate RegisterStack of " + name)
	}
	spec.Name = name
	stackByKey[key] = spec
	stackSeq = append(stackSeq, name)
}

// LookupStack resolves a registered stack by name (case-insensitive).
func LookupStack(name string) (StackSpec, bool) {
	stackMu.RLock()
	defer stackMu.RUnlock()
	s, ok := stackByKey[strings.ToLower(strings.TrimSpace(name))]
	return s, ok
}

// Stacks returns every registered spec in registration order.
func Stacks() []StackSpec {
	stackMu.RLock()
	defer stackMu.RUnlock()
	out := make([]StackSpec, len(stackSeq))
	for i, n := range stackSeq {
		out[i] = stackByKey[strings.ToLower(n)]
	}
	return out
}

// StackNames returns the registered stack names, sorted.
func StackNames() []string {
	stackMu.RLock()
	defer stackMu.RUnlock()
	names := append([]string(nil), stackSeq...)
	sort.Strings(names)
	return names
}

func init() {
	for _, s := range []StackSpec{
		{Name: "TCP", Transport: TransportTCP, Record: RecordPlain},
		{Name: "kTLS-sw", Transport: TransportTCP, Record: RecordKTLSSW},
		{Name: "kTLS-hw", Transport: TransportTCP, Record: RecordKTLSHW},
		{Name: "TLS", Transport: TransportTCP, Record: RecordUserTLS},
		{Name: "TCPLS", Transport: TransportTCP, Record: RecordTCPLS},
		{Name: "Homa", Transport: TransportHoma, Record: RecordPlain},
		{Name: "SMT-sw", Transport: TransportHoma, Record: RecordSMTSW},
		{Name: "SMT-hw", Transport: TransportHoma, Record: RecordSMTHW},
	} {
		RegisterStack(s)
	}
}

// mustStack resolves a name that init registered; for lineup
// definitions only.
func mustStack(name string) StackSpec {
	s, ok := LookupStack(name)
	if !ok {
		//smt:allow panic -- init-time lookup of the built-in lineup; a missing name is a registration bug
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
