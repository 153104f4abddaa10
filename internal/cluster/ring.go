package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/tier"
)

// replicas is how many virtual nodes each daemon address gets on
// the hash ring. More points smooth the key distribution between
// unevenly hashed addresses; 64 keeps the per-address imbalance within
// a few percent for small fleets without making the ring large.
const replicas = 64

// ring maps tier keys onto daemon indices by consistent hashing:
// each address owns the arc below its virtual points, so adding or
// removing one address remaps only the keys on its own arcs rather
// than reshuffling the whole key space (what modular hashing would
// do, turning every topology change into a fleet-wide cold start).
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int
}

// newRing builds the ring over addrs with replicas virtual points
// each.
func newRing(addrs []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(addrs)*replicas)}
	for i, addr := range addrs {
		for v := 0; v < replicas; v++ {
			h := fnv.New64a()
			h.Write([]byte(addr))
			h.Write([]byte("#"))
			h.Write([]byte(strconv.Itoa(v)))
			r.points = append(r.points, ringPoint{hash: h.Sum64(), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// node returns the index of the address owning key: the first virtual
// point at or above the key's position, wrapping at the top.
func (r *ring) node(key tier.Key) int {
	if len(r.points) == 0 {
		return 0
	}
	// Both key words are already uniform (FNV-1a 128); fold them so the
	// ring position differs from anything either word is used for alone.
	pos := key.Hi ^ (key.Lo*0x9e3779b97f4a7c15 + 1)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= pos })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
