package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/sim"
)

// Node is one discovered device in the FM's topology database.
type Node struct {
	DSN  asi.DSN
	Type asi.DeviceType
	// Ports is the device's port count from its general information.
	Ports int
	// Path is the source route from the FM's endpoint to this device.
	Path route.Path
	// ArrivalPort is the device port on which FM requests arrive along
	// Path — the far end of the link the FM crossed to reach it.
	ArrivalPort int
	// PortKnown and PortActive record per-port attribute reads.
	PortKnown  []bool
	PortActive []bool
	// General keeps the raw decoded general information.
	General asi.GeneralInfo
	// Validated stamps the last simulated instant the FM heard from the
	// device itself (probe, port read, or verify completion) — the
	// per-node staleness the daemon's keeper ages re-audits on. It is
	// bookkeeping, not topology: Fingerprint ignores it.
	Validated sim.Time
	// links is the database's only link store: links[p] names the far
	// end of the cable recorded on port p. AddNode allocates it, one
	// slot per port; AddLink, RemoveLink and RemoveNode edit it.
	links []slot
}

// slot is one port's link record: the peer device and the peer's port.
type slot struct {
	dsn  asi.DSN
	port int32
	ok   bool
}

// holds reports whether the slot records a cable to (dsn, port).
func (s *slot) holds(dsn asi.DSN, port int) bool {
	return s.ok && s.dsn == dsn && int(s.port) == port
}

// portFlags returns zeroed PortKnown and PortActive slices for a device
// with the given port count, carved from one allocation.
func portFlags(ports int) (known, active []bool) {
	b := make([]bool, 2*ports)
	return b[:ports:ports], b[ports:]
}

// copyFlags copies a node's PortKnown and PortActive into one shared
// backing array.
func copyFlags(known, active []bool) ([]bool, []bool) {
	b := make([]bool, len(known)+len(active))
	copy(b, known)
	copy(b[len(known):], active)
	return b[:len(known):len(known)], b[len(known):]
}

// clone deep-copies a node: its path, port flags and link slots share
// nothing with the original.
func (n *Node) clone() *Node {
	c := *n
	c.Path = append(route.Path(nil), n.Path...)
	c.PortKnown, c.PortActive = copyFlags(n.PortKnown, n.PortActive)
	c.links = append([]slot(nil), n.links...)
	return &c
}

// PortsRead reports whether every port's attributes have been read.
func (n *Node) PortsRead() bool {
	for _, k := range n.PortKnown {
		if !k {
			return false
		}
	}
	return true
}

// Link records a discovered cable between two device ports.
type Link struct {
	A     asi.DSN
	APort int
	B     asi.DSN
	BPort int
}

// normalize orders the endpoints so a link has one canonical key.
func (l Link) normalize() Link {
	if l.B < l.A || (l.B == l.A && l.BPort < l.APort) {
		return Link{A: l.B, APort: l.BPort, B: l.A, BPort: l.APort}
	}
	return l
}

// DB is the fabric manager's topology database, rebuilt from scratch on
// every (full) discovery, as the paper assumes: "the FM obtains the
// complete fabric topology, discarding all the previously collected
// information".
//
// Links live in per-port slots on the nodes, so every per-port and
// per-device query touches one device's ports, never the whole link set.
type DB struct {
	// HostDSN is the endpoint hosting the FM.
	HostDSN asi.DSN
	nodes   map[asi.DSN]*Node
	// nlinks counts the recorded links (filled slot pairs).
	nlinks int
}

// NewDB returns an empty database for an FM hosted on the given endpoint.
func NewDB(host asi.DSN) *DB {
	return &DB{HostDSN: host, nodes: make(map[asi.DSN]*Node)}
}

// Node returns the database entry for a DSN, or nil.
func (db *DB) Node(dsn asi.DSN) *Node { return db.nodes[dsn] }

// NumNodes returns the number of discovered devices (including the host).
func (db *DB) NumNodes() int { return len(db.nodes) }

// NumSwitches counts discovered switches.
func (db *DB) NumSwitches() int {
	c := 0
	for _, n := range db.nodes {
		if n.Type == asi.DeviceSwitch {
			c++
		}
	}
	return c
}

// NumLinks returns the number of discovered links.
func (db *DB) NumLinks() int { return db.nlinks }

// Nodes returns all entries sorted by DSN for deterministic iteration.
func (db *DB) Nodes() []*Node {
	out := make([]*Node, 0, len(db.nodes))
	for _, n := range db.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DSN < out[j].DSN })
	return out
}

// Links returns all discovered links sorted canonically.
func (db *DB) Links() []Link {
	out := make([]Link, 0, db.nlinks)
	forLinks(db.Nodes(), func(l Link) { out = append(out, l) })
	return out
}

// forLinks calls fn for every link in canonical order, given the nodes
// sorted by DSN: each link is reported once, from the slot on its
// normalized A side, and a port holds at most one link, so walking the
// sorted nodes' ports in order yields the links sorted by (A, APort).
func forLinks(sorted []*Node, fn func(Link)) {
	for _, n := range sorted {
		for p := range n.links {
			s := &n.links[p]
			if s.ok && (n.DSN < s.dsn || (n.DSN == s.dsn && p < int(s.port))) {
				fn(Link{A: n.DSN, APort: p, B: s.dsn, BPort: int(s.port)})
			}
		}
	}
}

// Clone deep-copies the database: node entries (including their paths,
// per-port attribute slices and link slots) share nothing with the
// original. The serving layer uses it to freeze a discovery result into
// an immutable RIB snapshot while the manager keeps mutating its live
// database (partial assimilation edits entries in place).
func (db *DB) Clone() *DB {
	out := &DB{
		HostDSN: db.HostDSN,
		nodes:   make(map[asi.DSN]*Node, len(db.nodes)),
		nlinks:  db.nlinks,
	}
	for dsn, n := range db.nodes {
		out.nodes[dsn] = n.clone()
	}
	return out
}

// Fingerprint hashes the database's topology content — the node set
// (DSN, type, port count) and the canonical link set — into one FNV-1a
// value. Two databases fingerprint equally iff they describe the same
// topology, regardless of discovery order or algorithm, so runs of
// different algorithms over the same fabric can be compared in O(1).
func (db *DB) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	nodes := db.Nodes()
	mix(uint64(len(nodes)))
	for _, n := range nodes {
		mix(uint64(n.DSN))
		mix(uint64(n.Type))
		mix(uint64(n.Ports))
	}
	mix(uint64(db.nlinks))
	forLinks(nodes, func(l Link) {
		mix(uint64(l.A))
		mix(uint64(l.APort))
		mix(uint64(l.B))
		mix(uint64(l.BPort))
	})
	return h
}

// AddNode inserts a newly discovered device. It reports whether the device
// was new; a device reached through an alternate path keeps its original
// entry (and path). The database takes n over and gives it one empty
// link slot per port: links are recorded only through AddLink.
func (db *DB) AddNode(n *Node) bool {
	if _, ok := db.nodes[n.DSN]; ok {
		return false
	}
	n.links = make([]slot, max(n.Ports, 0))
	db.nodes[n.DSN] = n
	return true
}

// RemoveNode deletes a device and all links touching it (used by partial
// rediscovery when pruning an unreachable region).
func (db *DB) RemoveNode(dsn asi.DSN) {
	n := db.nodes[dsn]
	if n == nil {
		return
	}
	for p := range n.links {
		s := n.links[p]
		if !s.ok {
			continue
		}
		if far := db.slotAt(s.dsn, int(s.port)); far != nil {
			*far = slot{}
		}
		n.links[p] = slot{}
		db.nlinks--
	}
	delete(db.nodes, dsn)
}

// slotAt returns the link slot of a device port, or nil when the device
// is unknown or has no such port.
func (db *DB) slotAt(dsn asi.DSN, port int) *slot {
	n := db.nodes[dsn]
	if n == nil || port < 0 || port >= len(n.links) {
		return nil
	}
	return &n.links[port]
}

// AddLink records a link and reports whether the database holds it
// afterwards; the same cable crossed from either side collapses onto one
// entry. It refuses a link with an unknown endpoint, a port at or above
// that device's port count, or a port whose slot already holds a
// different peer: a port carries one cable, so such a link can only come
// from malformed device input.
func (db *DB) AddLink(l Link) bool {
	a, b := db.slotAt(l.A, l.APort), db.slotAt(l.B, l.BPort)
	if a == nil || b == nil || a == b {
		return false
	}
	if a.ok || b.ok {
		return a.holds(l.B, l.BPort) && b.holds(l.A, l.APort)
	}
	*a = slot{dsn: l.B, port: int32(l.BPort), ok: true}
	*b = slot{dsn: l.A, port: int32(l.APort), ok: true}
	db.nlinks++
	return true
}

// RemoveLink deletes a link, if recorded.
func (db *DB) RemoveLink(l Link) {
	a, b := db.slotAt(l.A, l.APort), db.slotAt(l.B, l.BPort)
	if a == nil || b == nil || !a.holds(l.B, l.BPort) || !b.holds(l.A, l.APort) {
		return
	}
	*a, *b = slot{}, slot{}
	db.nlinks--
}

// HasLink reports whether a link is recorded, in either orientation.
func (db *DB) HasLink(l Link) bool {
	a := db.slotAt(l.A, l.APort)
	return a != nil && a.holds(l.B, l.BPort)
}

// LinkAt returns the link attached to a device port, if recorded, in its
// normalized orientation.
func (db *DB) LinkAt(dsn asi.DSN, port int) (Link, bool) {
	s := db.slotAt(dsn, port)
	if s == nil || !s.ok {
		return Link{}, false
	}
	return Link{A: dsn, APort: port, B: s.dsn, BPort: int(s.port)}.normalize(), true
}

// Neighbor is one recorded cable seen from a device: the peer and the
// ports at both ends.
type Neighbor struct {
	DSN        asi.DSN
	LocalPort  int
	RemotePort int
}

// NeighborsOf lists the recorded neighbours of a device in port order.
func (db *DB) NeighborsOf(dsn asi.DSN) []Neighbor {
	n := db.nodes[dsn]
	if n == nil {
		return nil
	}
	var out []Neighbor
	for p, s := range n.links {
		if s.ok {
			out = append(out, Neighbor{DSN: s.dsn, LocalPort: p, RemotePort: int(s.port)})
		}
	}
	return out
}

// ReachableFromHost returns the set of DSNs the host endpoint reaches
// over the recorded links: the host and every device of its PathTree.
func (db *DB) ReachableFromHost() map[asi.DSN]bool {
	t := db.PathTree()
	seen := make(map[asi.DSN]bool, len(t.prev)+1)
	if t.src != nil {
		seen[t.src.DSN] = true
	}
	for dsn := range t.prev {
		seen[dsn] = true
	}
	return seen
}

// PathTo computes a shortest source route from the host endpoint to the
// target over the recorded links, breadth-first, and the target's arrival
// port along it. It returns a nil path when the target is not reachable
// in the database. The first hop leaves the host endpoint; every switch
// traversal contributes one hop, the target itself none. Callers routing
// many devices share one PathTree instead.
func (db *DB) PathTo(target asi.DSN) (route.Path, int) {
	return db.PathTree().PathTo(target)
}

// PathBetween computes a shortest source route from one discovered device
// to another over the recorded links. Only endpoints and switches known
// to the database are usable; nil means unreachable.
func (db *DB) PathBetween(src, dst asi.DSN) route.Path {
	p, _ := db.treeFrom(src).PathTo(dst)
	return p
}

// PathTree is one breadth-first search over the recorded links from a
// source device, holding every reachable device's predecessor. Only the
// source and switches forward. One tree routes every device of a
// database generation in O(V+L) total, where one search per device
// would cost O(V·(V+L)). A tree is a view of the links at the time it
// was built: adding or removing a link invalidates it, while removing a
// device the tree does not reach leaves it valid.
type PathTree struct {
	src  *Node
	prev map[asi.DSN]pred
}

// pred records how the search reached a device: the previous device,
// the port it left by, the port it arrived on, and the number of switch
// hops on the route to the device.
type pred struct {
	from       *Node
	fromPort   int
	arrivePort int
	hops       int
}

// PathTree searches the database from the host endpoint.
func (db *DB) PathTree() *PathTree { return db.treeFrom(db.HostDSN) }

// treeFrom searches the database from src; an unknown src reaches
// nothing.
func (db *DB) treeFrom(src asi.DSN) *PathTree {
	t := &PathTree{src: db.nodes[src]}
	if t.src == nil {
		return t
	}
	t.prev = make(map[asi.DSN]pred, len(db.nodes))
	queue := make([]*Node, 1, len(db.nodes))
	queue[0] = t.src
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		hops := 0
		if cur != t.src {
			if cur.Type != asi.DeviceSwitch {
				continue
			}
			hops = t.prev[cur.DSN].hops + 1
		}
		for p, s := range cur.links {
			if !s.ok || s.dsn == src {
				continue
			}
			if _, seen := t.prev[s.dsn]; seen {
				continue
			}
			t.prev[s.dsn] = pred{from: cur, fromPort: p, arrivePort: int(s.port), hops: hops}
			queue = append(queue, db.nodes[s.dsn])
		}
	}
	return t
}

// Reachable reports whether the tree reaches a device (the source
// included).
func (t *PathTree) Reachable(dsn asi.DSN) bool {
	if t.src == nil {
		return false
	}
	_, ok := t.prev[dsn]
	return ok || dsn == t.src.DSN
}

// PathTo returns the tree's source route to the target and the target's
// arrival port, or a nil path when the tree does not reach it. A route
// to the source itself is empty, not nil.
func (t *PathTree) PathTo(target asi.DSN) (route.Path, int) {
	if t.src == nil {
		return nil, 0
	}
	if target == t.src.DSN {
		return route.Path{}, 0
	}
	last, ok := t.prev[target]
	if !ok {
		return nil, 0
	}
	// hops must be non-nil even for adjacent targets: nil is the
	// unreachable sentinel, a zero-hop path is a valid route.
	hops := make(route.Path, last.hops)
	for p, i := last, last.hops-1; i >= 0; i-- {
		up := t.prev[p.from.DSN]
		hops[i] = route.Hop{Ports: p.from.Ports, In: up.arrivePort, Out: p.fromPort}
		p = up
	}
	return hops, last.arrivePort
}

// ChainLink is one cable traversal on a database path.
type ChainLink struct {
	From     asi.DSN
	FromPort int
	To       asi.DSN
	ToPort   int
}

// Chain returns the cable-level walk of the tree's shortest path to dst,
// or nil if unreachable. Multicast tree construction uses it to mark the
// ports a group spans.
func (t *PathTree) Chain(dst asi.DSN) []ChainLink {
	if t.src != nil && dst == t.src.DSN {
		return []ChainLink{}
	}
	last, ok := t.prev[dst]
	if !ok {
		return nil
	}
	out := make([]ChainLink, last.hops+1)
	at := dst
	for i := last.hops; i >= 0; i-- {
		p := t.prev[at]
		out[i] = ChainLink{From: p.from.DSN, FromPort: p.fromPort, To: at, ToPort: p.arrivePort}
		at = p.from.DSN
	}
	return out
}

// Check verifies the database's structural invariants and returns an
// error naming every violation (nil when all hold):
//
//   - every device has one link slot per port;
//   - every filled slot (a,p)→(b,q) names a known device b and a port q
//     in range, and slot (b,q) points back at (a,p);
//   - NumLinks equals the number of filled slot pairs;
//   - every device's stored Path walks over recorded links from the host
//     and arrives on the device's ArrivalPort.
func (db *DB) Check() error {
	const maxReported = 8
	var errs []error
	violations := 0
	fail := func(format string, a ...any) {
		if violations++; violations <= maxReported {
			errs = append(errs, fmt.Errorf("core: "+format, a...))
		}
	}
	filled := 0
	for _, n := range db.Nodes() {
		if len(n.links) != n.Ports {
			fail("%v has %d link slots for %d ports", n.DSN, len(n.links), n.Ports)
		}
		for p, s := range n.links {
			if !s.ok {
				continue
			}
			filled++
			switch far := db.slotAt(s.dsn, int(s.port)); {
			case far == nil:
				fail("%v port %d links to %v port %d, which is unknown", n.DSN, p, s.dsn, s.port)
			case !far.holds(n.DSN, p):
				fail("%v port %d links to %v port %d, which does not link back", n.DSN, p, s.dsn, s.port)
			}
		}
		if n.DSN != db.HostDSN && !db.walkable(n) {
			fail("%v: stored path %v does not walk over recorded links to arrival port %d",
				n.DSN, n.Path, n.ArrivalPort)
		}
	}
	if filled != 2*db.nlinks {
		fail("NumLinks is %d but %d slots are filled", db.nlinks, filled)
	}
	if violations > maxReported {
		errs = append(errs, fmt.Errorf("core: %d more violations", violations-maxReported))
	}
	return errors.Join(errs...)
}

// walkable reports whether n's stored Path, followed from the host over
// the recorded links, ends on n's ArrivalPort.
func (db *DB) walkable(n *Node) bool {
	host := db.nodes[db.HostDSN]
	if host == nil {
		return false
	}
	// The route does not name the port it leaves the host by.
	for out := range host.links {
		if db.walkFrom(host, out, n) {
			return true
		}
	}
	return false
}

// walkFrom follows n.Path from one port of cur.
func (db *DB) walkFrom(cur *Node, out int, n *Node) bool {
	for _, h := range n.Path {
		s := cur.links[out]
		next := db.nodes[s.dsn]
		if !s.ok || next == nil || next.Type != asi.DeviceSwitch || h.Ports != next.Ports ||
			h.In != int(s.port) || h.Out < 0 || h.Out >= len(next.links) {
			return false
		}
		cur, out = next, h.Out
	}
	return cur.links[out].holds(n.DSN, n.ArrivalPort)
}

// String summarizes the database.
func (db *DB) String() string {
	return fmt.Sprintf("db{%d devices (%d switches), %d links}",
		db.NumNodes(), db.NumSwitches(), db.NumLinks())
}
