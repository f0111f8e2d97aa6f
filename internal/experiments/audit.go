package experiments

import (
	"errors"
	"fmt"
	"strings"

	"smt/internal/audit"
	"smt/internal/sim"
)

// This file wires the wire-compliance auditor (internal/audit) into the
// experiment harness. Auditing is a run option, RunOptions.Audit
// (smtexp -audit), and off by default with zero footprint: no tap is
// attached and the seeded artifact bytes are identical either way (the
// auditor is a pure observer — see the netsim.Tap contract).
//
// The runner hands each point an auditScope, the way the lineup reaches
// an experiment's build. When the scope is on, every world the point
// builds gets an auditor before its first packet (attach), and the
// runner settles those worlds as soon as the point returns (settle); a
// settle failure becomes the point's Result.Err.

// auditScope is one point's audit switch and the worlds it audited.
type auditScope struct {
	on     bool
	worlds []*World
}

// attach gives w an auditor when the scope is on and records w for
// settlement. It is the one place a stack's encryption policy reaches
// the auditor: an encrypted stack (stackWiring.encrypted) must show
// ciphertext on the wire, a plain stack may carry plaintext. Callers
// attach before w carries its first packet.
func (s *auditScope) attach(w *World, encrypted bool) {
	if s == nil || !s.on {
		return
	}
	w.Audit = audit.New()
	w.Audit.SetExpectCiphertext(encrypted)
	w.Net.SetTap(w.Audit)
	s.worlds = append(s.worlds, w)
}

// settleTime bounds how much virtual time settle lets a world drain.
// Closed loops stop issuing at their stop time, so a measured world
// normally drains within a few RTOs.
const settleTime = 2 * sim.Second

// settle drains an audited world and checks it at quiescence: the
// auditor's invariant set (plaintext, nonce/keystream reuse, framing)
// plus byte conservation, that the tap saw packets at all, and that
// the packet pool and the message-buffer pool are both empty. It
// reports whether the world quiesced and how many pooled packets and
// message buffers are still outstanding; err names every failed check
// (nil when the world settled clean).
func settle(w *World) (quiesced bool, outstanding int, err error) {
	deadline := w.Eng.Now() + settleTime
	for w.Eng.Pending() > 0 && w.Eng.Now() < deadline {
		w.Eng.RunUntil(min(w.Eng.Now()+10*sim.Millisecond, deadline))
	}
	quiesced = w.Eng.Pending() == 0
	pkts, bufs := w.Net.OutstandingPackets(), w.Net.Bufs().Outstanding()
	if !quiesced {
		return false, pkts + bufs, fmt.Errorf("did not quiesce (%d events pending)", w.Eng.Pending())
	}
	w.Audit.CheckConservation(w.Net)
	var fails []string
	st := w.Audit.Stats()
	if st.TotalViolations != 0 {
		fails = append(fails, fmt.Sprintf("%d audit violations", st.TotalViolations))
		for _, v := range w.Audit.Violations() {
			fails = append(fails, v.String())
		}
	}
	if st.Packets == 0 {
		fails = append(fails, "the tap saw no packets")
	}
	if pkts != 0 {
		fails = append(fails, fmt.Sprintf("%d pooled packets outstanding", pkts))
	}
	if bufs != 0 {
		fails = append(fails, fmt.Sprintf("%d message buffers outstanding", bufs))
	}
	if len(fails) > 0 {
		err = errors.New(strings.Join(fails, "; "))
	}
	return true, pkts + bufs, err
}
