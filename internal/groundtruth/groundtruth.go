// Package groundtruth builds labeled originator sets the way the paper
// does (§IV-B, Appendix A): from external evidence — darknets and DNS
// blacklists — intersected with the most prolific originators and verified
// by a (simulated) human curator.
//
// In the reproduction, "external sources" are generated from the world's
// campaign schedule with realistic imperfection: most spammers appear on a
// few of nine blacklists, most scanners are visible in the darknet, a few
// clean hosts are false positives, and the curator occasionally mislabels.
package groundtruth

import (
	"sort"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/darknet"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

// Evidence is the external-source view of one originator: the DarkIP /
// BLS / BLO columns of Tables VII and VIII.
type Evidence struct {
	DarknetHits int // distinct darknet addresses probed
	SpamLists   int // blacklists flagging spam (of 9 orgs)
	OtherLists  int // blacklists flagging other malice (ssh brute force, ...)
}

// Oracle answers evidence and (curator-grade) truth queries about
// originators.
type Oracle struct {
	truth map[ipaddr.Addr]activity.Class
	dark  *darknet.Darknet
	bl    map[ipaddr.Addr]Evidence
}

// NewOracle derives blacklist state from the true campaign classes. dark
// may be nil when no darknet ran.
func NewOracle(truth map[ipaddr.Addr]activity.Class, dark *darknet.Darknet, seed uint64) *Oracle {
	st := rng.NewSource(seed).Stream("blacklists")
	o := &Oracle{
		truth: truth,
		dark:  dark,
		bl:    make(map[ipaddr.Addr]Evidence),
	}
	// Deterministic iteration: collect and sort addresses first.
	addrs := make([]ipaddr.Addr, 0, len(truth))
	for a := range truth {
		addrs = append(addrs, a)
	}
	sortAddrs(addrs)
	for _, a := range addrs {
		var e Evidence
		switch truth[a] {
		case activity.Spam:
			// Most spammers are on some spam blacklists; aggressive
			// ones on several (coverage is never total).
			if st.Bool(0.85) {
				e.SpamLists = 1 + st.Intn(4)
			}
			if st.Bool(0.4) {
				e.OtherLists = 1 + st.Intn(3)
			}
		case activity.Scan:
			if st.Bool(0.5) {
				e.OtherLists = 1 + st.Intn(3)
			}
			if st.Bool(0.1) {
				e.SpamLists = 1
			}
		default:
			// Rare false positives on benign infrastructure.
			if st.Bool(0.02) {
				e.OtherLists = 1
			}
		}
		if e != (Evidence{}) {
			o.bl[a] = e
		}
	}
	return o
}

func sortAddrs(addrs []ipaddr.Addr) {
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
}

// Evidence returns the external-source view of an originator.
func (o *Oracle) Evidence(a ipaddr.Addr) Evidence {
	e := o.bl[a]
	if o.dark != nil {
		e.DarknetHits = o.dark.Hits(a)
	}
	return e
}

// Lookup returns the true class of an originator, as a perfect curator
// would eventually determine it.
func (o *Oracle) Lookup(a ipaddr.Addr) (activity.Class, bool) {
	c, ok := o.truth[a]
	return c, ok
}

// LabeledSet is a curated training/validation set.
type LabeledSet struct {
	Labels map[ipaddr.Addr]activity.Class
}

// Counts returns per-class label counts (Table VI rows).
func (s *LabeledSet) Counts() [activity.NumClasses]int {
	var out [activity.NumClasses]int
	for _, c := range s.Labels {
		out[c]++
	}
	return out
}

// Total returns the number of labeled examples.
func (s *LabeledSet) Total() int { return len(s.Labels) }

// CurationConfig controls the simulated expert.
type CurationConfig struct {
	// MaxPerClass caps labels per class (the paper's sets run 5-136 per
	// class; default 64).
	MaxPerClass int
}

const (
	// CandidateLimit restricts curation to the top-N ranked originators:
	// the paper intersects its external sources with the top 10000.
	CandidateLimit = 10000
	// LabelNoise is the probability of a curation mistake (assigning a
	// uniformly random wrong class).
	LabelNoise = 0.02
)

// DefaultCuration mirrors the paper's workflow at simulation scale.
func DefaultCuration() CurationConfig { return CurationConfig{MaxPerClass: 64} }

// Curate builds a labeled set from ranked candidates (most queriers
// first). The curator consults the oracle for each of the top
// CandidateLimit candidates and stops filling a class at MaxPerClass.
func Curate(ranked []ipaddr.Addr, o *Oracle, cfg CurationConfig, st *rng.Stream) *LabeledSet {
	return curate(ranked, o, cfg.MaxPerClass, CandidateLimit, LabelNoise, st)
}

func curate(ranked []ipaddr.Addr, o *Oracle, maxPerClass, candidates int, noise float64, st *rng.Stream) *LabeledSet {
	if maxPerClass <= 0 {
		maxPerClass = 64
	}
	set := &LabeledSet{Labels: make(map[ipaddr.Addr]activity.Class)}
	var counts [activity.NumClasses]int
	for _, a := range ranked[:min(candidates, len(ranked))] {
		cls, ok := o.Lookup(a)
		if !ok {
			continue // not an originator the curator can verify
		}
		if counts[cls] >= maxPerClass {
			continue
		}
		label := cls
		if noise > 0 && st.Bool(noise) {
			// A curation mistake: any other class.
			off := 1 + st.Intn(int(activity.NumClasses)-1)
			label = activity.Class((int(cls) + off) % int(activity.NumClasses))
		}
		set.Labels[a] = label
		counts[cls]++
	}
	return set
}

// Merge folds other's labels into s (later labels win), implementing the
// paper's multi-date curation for M-sampled (§III-E).
func (s *LabeledSet) Merge(other *LabeledSet) {
	for a, c := range other.Labels {
		s.Labels[a] = c
	}
}

// Prune drops labels not present in the active set — curators remove
// examples whose activity has stopped.
func (s *LabeledSet) Prune(active func(ipaddr.Addr) bool) int {
	dropped := 0
	for a := range s.Labels {
		if !active(a) {
			delete(s.Labels, a)
			dropped++
		}
	}
	return dropped
}

// Clone deep-copies the set.
func (s *LabeledSet) Clone() *LabeledSet {
	out := &LabeledSet{Labels: make(map[ipaddr.Addr]activity.Class, len(s.Labels))}
	for a, c := range s.Labels {
		out.Labels[a] = c
	}
	return out
}
