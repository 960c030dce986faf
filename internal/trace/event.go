package trace

import (
	"fmt"
	"strconv"
	"strings"

	"dnsbackscatter/internal/simtime"
)

// Event kinds, in the order they appear along a lookup's path.
const (
	// KindLookup is a trace's first event: querier and qname originator.
	KindLookup = "lookup"
	// KindActivity annotates the campaign activity behind the lookup.
	KindActivity = "activity"
	// KindCacheHit marks a resolver cache answer (no upstream queries).
	KindCacheHit = "cache_hit"
	// KindQuery is one upstream query attempt at a hierarchy level.
	KindQuery = "query"
	// KindFault marks an injected fault suffered by the current attempt.
	KindFault = "fault"
	// KindAnswer is a response from a hierarchy level.
	KindAnswer = "answer"
	// KindTCP marks a truncation-driven TCP retry.
	KindTCP = "tcp"
	// KindGiveUp marks retry-budget exhaustion at a level.
	KindGiveUp = "giveup"
	// KindSensor marks a sensor keeping a record of the lookup.
	KindSensor = "sensor"
	// KindDone is a trace's terminal event (total duration, query count).
	KindDone = "done"
	// KindServe is a server-side serve event (live dnsserver path).
	KindServe = "serve"
	// KindPipeline is a Figure 2 pipeline provenance event.
	KindPipeline = "pipeline"
)

// Event is one structured trace event. Field order is the JSON field
// order; the zero value of every optional field is omitted, so rendered
// lines carry only what the event kind uses.
type Event struct {
	// T0 is the owning trace's start time (the JSONL primary sort key).
	T0 simtime.Time `json:"t0"`
	// Trace is the owning trace's ID.
	Trace ID `json:"trace"`
	// Seq orders events within a trace; pipeline events use fixed high
	// values so they always sort after the DNS path.
	Seq int `json:"seq"`
	// Time is the simulated time of the event itself.
	Time simtime.Time `json:"t"`
	// Kind is one of the Kind constants.
	Kind string `json:"kind"`
	// Level is the hierarchy level (root, national, final) for
	// query/fault/answer/tcp/giveup events.
	Level string `json:"level,omitempty"`
	// Authority is the sensor authority for sensor/serve events.
	Authority string `json:"authority,omitempty"`
	// Querier is the resolver address (lookup events).
	Querier string `json:"querier,omitempty"`
	// Orig is the originator whose reverse name is queried.
	Orig string `json:"orig,omitempty"`
	// Class is the campaign activity class (activity events).
	Class string `json:"class,omitempty"`
	// Port is the activity contact-port label, e.g. "tcp443" (activity
	// events).
	Port string `json:"port,omitempty"`
	// RCode is the symbolic response code (answer/sensor events).
	RCode string `json:"rcode,omitempty"`
	// Attempt is the 1-based attempt number (query/fault/tcp events).
	Attempt int `json:"attempt,omitempty"`
	// Fault is the injected fault kind (fault events).
	Fault string `json:"fault,omitempty"`
	// Dur is injected latency (answer) or total duration (done) seconds.
	Dur simtime.Duration `json:"dur,omitempty"`
	// Queries is the total upstream queries sent (done events).
	Queries int `json:"queries,omitempty"`
	// Stage is the pipeline stage name (pipeline events).
	Stage string `json:"stage,omitempty"`
	// Outcome is the stage's decision, e.g. kept/dropped (pipeline
	// events).
	Outcome string `json:"outcome,omitempty"`
	// Detail carries stage-specific context (pipeline events).
	Detail string `json:"detail,omitempty"`
}

// String renders the ID as 16 zero-padded hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the ID as a 16-digit hex JSON string.
func (id ID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON parses the hex-string form produced by MarshalJSON.
func (id *ID) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return fmt.Errorf("trace: id must be a hex string, got %s", s)
	}
	v, err := ParseID(strings.Trim(s, `"`))
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// ParseID parses a 16-digit hex trace ID as rendered by ID.String.
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q: %w", s, err)
	}
	return ID(v), nil
}

// RCodeName returns the symbolic name for a DNS response code: the three
// the simulation produces get their RFC names, anything else renders as
// its number.
func RCodeName(rcode uint8) string {
	switch rcode {
	case 0:
		return "noerror"
	case 2:
		return "servfail"
	case 3:
		return "nxdomain"
	default:
		return strconv.Itoa(int(rcode))
	}
}
