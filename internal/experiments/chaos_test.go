package experiments

import "testing"

// TestChaosFailClosed is the fault battery's acceptance bar: every
// registered stack, at every chaos intensity, must fail closed.
//
//   - No stack may deliver tampered bytes to the application unless it is
//     a plain (unencrypted) stack — those are the control group proving
//     the fault injection has teeth.
//   - The wire auditor must stay green: zero invariant violations at
//     every intensity (tolerated anomalies like hw-resync slot rewrites
//     are stats, not violations).
//   - Every world must drain to quiescence and return every packet and
//     message buffer to its pool — fault storms may cost goodput, never
//     leak resources.
//   - Hardware-offload stacks must exercise the §3.2 resync machinery
//     (retransmissions desynchronize the NIC's autonomous counter).
func TestChaosFailClosed(t *testing.T) {
	type cell struct {
		level string
		row   ChaosRow
	}
	for _, stack := range Stacks() {
		stack := stack
		encrypted := stack.Record != RecordPlain
		hwOffload := stack.Record == RecordSMTHW || stack.Record == RecordKTLSHW
		t.Run(stack.Name, func(t *testing.T) {
			t.Parallel()
			var cells []cell
			for li, level := range ChaosLevels {
				if testing.Short() && level.Name != "storm" {
					continue
				}
				r, err := MeasureChaos(stack, level.C, chaosSeed(li))
				if err != nil {
					t.Fatalf("%s: %v", level.Name, err)
				}
				cells = append(cells, cell{level.Name, r})
				t.Logf("%-8s completed=%d goodput=%.3f tampered_delivered=%d wire_tampered=%d violations=%d resyncs=%d",
					level.Name, r.Completed, r.GoodputGbps, r.TamperedDelivered, r.WireTampered, r.AuditViolations, r.Resyncs)

				if r.AuditViolations != 0 {
					t.Errorf("%s: %d audit violations, want 0", level.Name, r.AuditViolations)
				}
				if !r.Quiesced {
					t.Errorf("%s: world did not quiesce after the run", level.Name)
				}
				if r.Outstanding != 0 {
					t.Errorf("%s: %d packets or message buffers leaked from the pools", level.Name, r.Outstanding)
				}
				if r.WireTampered == 0 {
					t.Errorf("%s: no tampered packets committed to delivery — fault injection inert", level.Name)
				}
				if encrypted && r.TamperedDelivered != 0 {
					t.Errorf("%s: encrypted stack delivered %d tampered payloads to the application", level.Name, r.TamperedDelivered)
				}
				if !encrypted && r.TamperedDelivered == 0 {
					t.Errorf("%s: plain stack delivered no tampered payloads — control group broken", level.Name)
				}
				if hwOffload && r.Resyncs == 0 {
					t.Errorf("%s: hardware offload saw no resyncs under faults", level.Name)
				}
			}
			// Fault intensity must cost goodput: for stacks that make
			// progress under light faults, the storm completes less.
			if !testing.Short() {
				var drizzle, storm *ChaosRow
				for i := range cells {
					switch cells[i].level {
					case "drizzle":
						drizzle = &cells[i].row
					case "storm":
						storm = &cells[i].row
					}
				}
				if drizzle != nil && storm != nil && drizzle.Completed > 0 && storm.Completed >= drizzle.Completed {
					t.Errorf("storm completed %d >= drizzle %d — fault intensity did not degrade goodput",
						storm.Completed, drizzle.Completed)
				}
			}
		})
	}
}
