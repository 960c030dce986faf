// Live hierarchy: the paper's Figure 1 over real UDP sockets on loopback.
// A root, a national registry, and a final authority each run as actual
// DNS servers; queriers resolve originators through a caching recursive
// resolver; sensors at each authority log what reaches them — showing
// live how caching attenuates backscatter up the hierarchy (§II, §IV-D).
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	backscatter "dnsbackscatter"
)

func main() {
	// Each server is handed its sink when it is started, so no query it
	// answers goes unlogged.
	var mu sync.Mutex
	counts := map[string]int{}
	sink := func(name string) backscatter.AuthoritySink {
		return func(r backscatter.Record) {
			mu.Lock()
			counts[name]++
			mu.Unlock()
		}
	}

	// Final authority for the originators' space: answers PTR with 1 h TTL.
	final, err := backscatter.ListenFinalAuthority("127.0.0.1:0", "final",
		func(a backscatter.Addr) backscatter.OriginatorProfile {
			return backscatter.OriginatorProfile{
				HasName: true,
				Name:    "origin-" + a.String() + ".example.net",
				TTL:     3600,
			}
		}, sink("final"))
	if err != nil {
		log.Fatal(err)
	}
	defer final.Close()

	// National registry: delegates every /16 of /8 100 to the final.
	national, err := backscatter.ListenReferralAuthority("127.0.0.1:0", "national",
		func(a backscatter.Addr) (backscatter.Delegation, bool) {
			if a.Slash8() != 100 {
				return backscatter.Delegation{}, false
			}
			o0, o1, _, _ := a.Octets()
			zone := fmt.Sprintf("%d.%d.in-addr.arpa", o1, o0)
			return backscatter.Delegation{
				Zone: zone, NS: "ns.final.example", Addr: final.Addr(), TTL: 6 * 3600,
			}, true
		}, sink("national"))
	if err != nil {
		log.Fatal(err)
	}
	defer national.Close()

	// Root: delegates /8 100 to the national registry.
	root, err := backscatter.ListenReferralAuthority("127.0.0.1:0", "root",
		func(a backscatter.Addr) (backscatter.Delegation, bool) {
			if a.Slash8() != 100 {
				return backscatter.Delegation{}, false
			}
			return backscatter.Delegation{
				Zone: "100.in-addr.arpa", NS: "ns.registry.example",
				Addr: national.Addr(), TTL: 2 * 86400,
			}, true
		}, sink("root"))
	if err != nil {
		log.Fatal(err)
	}
	defer root.Close()

	fmt.Printf("live hierarchy: root %s → national %s → final %s\n\n",
		root.Addr(), national.Addr(), final.Addr())

	// A "scanner" touches 50 targets in one /16; each target's shared
	// resolver performs the reverse lookup of the scanner... inverted
	// here for clarity: 5 queriers (recursive resolvers) each look up 10
	// distinct originators in 100.50.0.0/16.
	now := backscatter.Time(time.Now().Unix())
	for q := 0; q < 5; q++ {
		recursor := backscatter.NewRecursor(root.Addr().String())
		for k := 0; k < 10; k++ {
			orig, _ := backscatter.ParseAddr(fmt.Sprintf("100.50.%d.%d", q, k))
			name, trace, err := recursor.ResolvePTR(orig, now)
			if err != nil {
				log.Fatal(err)
			}
			if q == 0 && k < 2 {
				fmt.Printf("querier %d resolved %s → %s (root=%v national=%v final=%v)\n",
					q, orig, name, trace.Root, trace.National, trace.Final)
			}
		}
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nbackscatter observed per authority (50 lookups by 5 caching queriers):\n")
	fmt.Printf("  final authority: %d queries (sees everything)\n", counts["final"])
	fmt.Printf("  national:        %d queries (one per querier, delegations cached)\n", counts["national"])
	fmt.Printf("  root:            %d queries (one per querier)\n", counts["root"])
	fmt.Println("\nthis is §IV-D's attenuation, measured on live sockets: the higher the")
	fmt.Println("authority, the smaller — but still originator-attributable — the signal.")
}
