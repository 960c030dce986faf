package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"syscall"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/ipaddr"
)

// liveName is one distinct originator of the query stream: its
// pre-encoded PTR query and what the zone's definition — not the server
// under test — says must come back.
type liveName struct {
	wire  []byte // TXID zero; the sender patches it per send
	rcode byte
	// silent marks an originator whose final authority is unreachable by
	// design: bsserve records the query and sends nothing. Such a query
	// is sent and not waited for, or every one would hold a slot of the
	// closed loop for a full reply timeout and the loop would measure
	// the timeout.
	silent bool
}

// liveSend is one query of the stream: which name, asked by whom.
type liveSend struct {
	name    int32
	querier ipaddr.Addr
}

// liveTraffic is live-serve's query stream: the reverse queries of the
// dataset stream-replay ingests, in arrival order, so that name
// popularity, repeats, querier diversity and the share of silent names
// are the calibrated simulator's and not a guess of this harness. The
// shape fields are measured on the stream and reported, never assumed.
type liveTraffic struct {
	names []liveName
	sends []liveSend // one lap of the stream
	first []liveSend // every answering name once, from its first querier: the warm-up pass

	queriers    int     // distinct queriers in a lap
	sources     int     // distinct loopback source addresses they fold into
	silentNames int     // distinct silent originators
	silentShare float64 // queries to silent names ÷ queries
	repeatShare float64 // queries whose (name, querier) pair came earlier in the lap ÷ queries
	top1Share   float64 // queries to the most-asked 1 % of names ÷ queries
}

// arrivalOrder returns the dataset's records as an authority logs them.
// The simulator emits campaign by campaign within a day; a sensor sees
// them by time.
func arrivalOrder(ds *backscatter.Dataset) []backscatter.Record {
	recs := append([]backscatter.Record(nil), ds.Records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return recs
}

// source folds a querier into 127.0.0.0/8, every address of which Linux
// accepts as a local source without configuration, so bsserve sees one
// peer per querier. The low three octets are kept, so queriers that
// share a /24 still do. Each lap of the stream shifts the second octet:
// a lap repeats the names and their popularity from a fresh querier
// population, as another day's traffic would, and bsserve's 30-second
// (originator, querier) dedup — which runs on wall time here — does not
// see later laps as one retransmission storm.
func source(q ipaddr.Addr, lap int) [4]byte {
	_, b, c, d := q.Octets()
	b += byte(lap)
	switch {
	case b == 0 && c == 0 && d == 0:
		d = 1 // 127.0.0.0 names the network
	case b == 255 && c == 255 && d == 255:
		d = 254 // 127.255.255.255 is its broadcast address
	}
	return [4]byte{127, b, c, d}
}

// newLiveTraffic builds the stream from the seed's dataset and encodes a
// query per distinct originator. zoneSeed keys the zone bsserve will
// answer from.
func newLiveTraffic(seed, zoneSeed uint64, sz sizes) (*liveTraffic, error) {
	ds := backscatter.Build(seeded(backscatter.MDitl().Scaled(sz.ditlScale), seed))
	recs := arrivalOrder(ds)
	t := &liveTraffic{sends: make([]liveSend, 0, len(recs))}
	index := make(map[ipaddr.Addr]int32)
	var asked []int // queries per name
	queriers := make(map[ipaddr.Addr]struct{})
	sources := make(map[[4]byte]struct{})
	pairs := make(map[dnslog.PairKey]struct{})
	enc := dnswire.NewEncoder()
	msg := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(msg)
	var silentSends int
	for _, r := range recs {
		i, seen := index[r.Originator]
		if !seen {
			i = int32(len(t.names))
			index[r.Originator] = i
			p := dnssim.DefaultProfile(r.Originator + ipaddr.Addr(zoneSeed))
			msg.SetPTRQuery(0, r.Originator.ReverseName())
			wire, err := enc.Encode(msg, nil)
			if err != nil {
				return nil, fmt.Errorf("encode query for %v: %w", r.Originator, err)
			}
			n := liveName{wire: wire, rcode: dnswire.RCodeNXDomain, silent: p.FinalUnreachable}
			if p.HasName {
				n.rcode = dnswire.RCodeNoError
			}
			t.names = append(t.names, n)
			asked = append(asked, 0)
			if n.silent {
				t.silentNames++
			} else {
				t.first = append(t.first, liveSend{name: i, querier: r.Querier})
			}
		}
		asked[i]++
		if t.names[i].silent {
			silentSends++
		}
		queriers[r.Querier] = struct{}{}
		sources[source(r.Querier, 0)] = struct{}{}
		pairs[r.Key()] = struct{}{}
		t.sends = append(t.sends, liveSend{name: i, querier: r.Querier})
	}
	if len(t.first) < lanes*window {
		return nil, fmt.Errorf("only %d answering originators in %d records", len(t.first), len(recs))
	}
	t.queriers, t.sources = len(queriers), len(sources)
	total := float64(len(t.sends))
	t.silentShare = float64(silentSends) / total
	t.repeatShare = 1 - float64(len(pairs))/total
	sort.Sort(sort.Reverse(sort.IntSlice(asked)))
	var top int
	for _, c := range asked[:(len(asked)+99)/100] {
		top += c
	}
	t.top1Share = float64(top) / total
	return t, nil
}

// describe prints the measured shape of the stream.
func (t *liveTraffic) describe() string {
	return fmt.Sprintf("a lap is %d queries for %d names from %d queriers (%d loopback sources); "+
		"%.1f%% repeat an earlier (name, querier) pair, the top 1%% of names take %.1f%%, %d silent names take %.1f%% and are not waited for",
		len(t.sends), len(t.names), t.queriers, t.sources,
		100*t.repeatShare, 100*t.top1Share, t.silentNames, 100*t.silentShare)
}

// sourceControl returns the sendmsg control message that makes the
// kernel send a datagram from src (IP_PKTINFO with ipi_spec_dst), and
// the offset of the four address bytes in it so a sender can patch them
// per datagram. It is laid out by hand to stay clear of package unsafe.
func sourceControl() (oob []byte, srcAt int) {
	oob = make([]byte, syscall.CmsgSpace(syscall.SizeofInet4Pktinfo))
	n := uint64(syscall.CmsgLen(syscall.SizeofInet4Pktinfo))
	// struct cmsghdr: a native-word length, then level and type.
	if syscall.SizeofCmsghdr == 16 {
		binary.NativeEndian.PutUint64(oob, n)
	} else {
		binary.NativeEndian.PutUint32(oob, uint32(n))
	}
	binary.NativeEndian.PutUint32(oob[syscall.SizeofCmsghdr-8:], syscall.IPPROTO_IP)
	binary.NativeEndian.PutUint32(oob[syscall.SizeofCmsghdr-4:], syscall.IP_PKTINFO)
	// struct in_pktinfo: ipi_ifindex, ipi_spec_dst, ipi_addr.
	return oob, syscall.CmsgLen(0) + 4
}
