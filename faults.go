package backscatter

import "dnsbackscatter/internal/faults"

// Fault injection surface: seeded, deterministic failure storms for the
// DNS path (packet loss, latency, TC truncation, SERVFAIL bursts, dead
// authorities). A spec string "profile@seed" selects a plan; the same
// spec replays the identical storm at any worker count. See DESIGN §8.
// A FaultPlan is an immutable seeded fault schedule; nil injects nothing.
// Live servers take one as dnsserver.Config.Faults (bsserve -faults).
type FaultPlan = faults.Plan

// ParseFaults builds a fault plan from a "profile" or "profile@seed"
// spec. "" and "none" return a nil plan (no faults); unknown profiles or
// malformed seeds error.
func ParseFaults(spec string) (*FaultPlan, error) { return faults.Parse(spec) }
