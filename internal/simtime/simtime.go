// Package simtime provides the simulator's explicit clock.
//
// Nothing in the reproduction reads the wall clock: all timestamps are
// simulated seconds carried as values, so runs are reproducible and months
// of trace time cost nothing to "wait" through. Times are Unix seconds so
// the datasets can carry the paper's real calendar anchors (DITL April
// 2014, Heartbleed 2014-04-07, M-sampled 2014-02..10).
package simtime

import "time"

// Time is a simulated instant in Unix seconds (UTC).
type Time int64

// Duration is a span of simulated time in seconds.
type Duration int64

// Common durations.
const (
	Second Duration = 1
	Minute          = 60 * Second
	Hour            = 60 * Minute
	Day             = 24 * Hour
	Week            = 7 * Day
)

// Date constructs a Time from a UTC calendar date.
func Date(year int, month time.Month, day, hour, min int) Time {
	return Time(time.Date(year, month, day, hour, min, 0, 0, time.UTC).Unix())
}

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// TenMinuteBucket returns the global index of t's 10-minute period, the
// granularity of the paper's query-persistence feature (§III-C).
func (t Time) TenMinuteBucket() int { return int(t / (10 * Time(Minute))) }

// HourOfDay returns t's hour in [0, 24) UTC, used by diurnal activity.
func (t Time) HourOfDay() float64 {
	sec := int64(t) % int64(Day)
	if sec < 0 {
		sec += int64(Day)
	}
	return float64(sec) / float64(Hour)
}

// Std converts t to a standard library time.Time in UTC.
func (t Time) Std() time.Time { return time.Unix(int64(t), 0).UTC() }

// String formats t as an RFC 3339-style UTC timestamp.
func (t Time) String() string { return t.Std().Format("2006-01-02T15:04:05Z") }

// Wall returns the current wall-clock instant as a simulated Time. It is
// the single sanctioned bridge from real time into the simulator's clock
// domain: live collection (a Server timestamping real queries) defaults to
// it, while simulations inject an explicit clock instead. bslint's
// determinism check forbids time.Now everywhere outside this package, so
// every wall-clock read in the tree flows through here.
func Wall() Time { return Time(time.Now().Unix()) }

// WallDeadline returns the wall-clock instant d from now, for I/O
// deadlines on real sockets (SetReadDeadline needs absolute wall time, and
// a network timeout is inherently a wall-clock concern, not a simulated
// one). Like Wall, it exists so determinism-checked packages never touch
// time.Now directly.
func WallDeadline(d time.Duration) time.Time { return time.Now().Add(d) }

// Days returns a Duration of n days.
func Days(n int) Duration { return Duration(n) * Day }

// Hours returns a Duration of n hours.
func Hours(n int) Duration { return Duration(n) * Hour }
