// Dnspipeline: the full ecosystem loop the paper's conclusion points to —
// ZMap discovers infrastructure, ZDNS measures it. Phase one runs the
// scan engine with the udp probe module to find open resolvers on UDP/53;
// phase two feeds a name list through the zdns lookup engine against the
// resolvers just discovered.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"time"

	"zmapgo/internal/dnswire"
	"zmapgo/internal/netsim"
	"zmapgo/internal/zdns"
	"zmapgo/zmap"
)

func main() {
	// Share one simulated Internet between the scanner and the resolver.
	simCfg := netsim.DefaultConfig(2013)
	internet := netsim.New(simCfg)
	pub := zmap.NewInternet(zmap.SimOptions{Seed: 2013})

	// Phase 1: find DNS servers with a UDP scan of a /16.
	link := pub.NewLink(1<<16, 0)
	defer link.Close()
	var found bytes.Buffer
	scanner, err := zmap.Options{
		Ranges:   []string{"198.18.0.0/16"},
		Ports:    "53",
		Probe:    "udp",
		Seed:     4,
		Threads:  4,
		Cooldown: 400 * time.Millisecond,
		Format:   "jsonl",
		Filter:   "classification = udp", // responders only, not unreachables
		Results:  &found,
	}.Compile(link)
	if err != nil {
		log.Fatal(err)
	}
	summary, err := scanner.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	var servers []uint32
	dec := json.NewDecoder(&found)
	for dec.More() {
		var r zmap.Record
		if err := dec.Decode(&r); err != nil {
			log.Fatal(err)
		}
		servers = append(servers, r.IP)
	}
	fmt.Printf("phase 1: %d probes -> %d DNS responders\n", summary.PacketsSent, len(servers))
	if len(servers) == 0 {
		log.Fatal("no resolvers found; try another seed")
	}
	if len(servers) > 8 {
		servers = servers[:8]
	}

	// Phase 2: resolve a name list against the discovered servers.
	resolver, err := zdns.New(internet, servers, 7)
	if err != nil {
		log.Fatal(err)
	}
	names := []string{
		"www.example.com", "api.example.net", "mail.example.org",
		"cdn.test", "missing-one.test", "missing-two.test",
		"ns1.invalid", "web.corp.internal",
	}
	statuses := map[string]int{}
	resolver.LookupAll(names, dnswire.TypeA, 4, func(res zdns.Result) {
		statuses[res.Status]++
		fmt.Printf("  %-22s %-9s %v\n", res.Name, res.Status, res.Answers)
	})
	fmt.Printf("phase 2: %d names resolved: %v\n", len(names), statuses)
}
