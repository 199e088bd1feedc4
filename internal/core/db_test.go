package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asi"
	"repro/internal/route"
	"repro/internal/topo"
)

// buildTestDB constructs a small known database by hand:
//
//	host ep (dsn 1) -- sw A (dsn 10, 4 ports) -- sw B (dsn 11, 4 ports) -- ep (dsn 2)
//	                       \______________________/
//	                        second parallel link
func buildTestDB() *DB {
	db := NewDB(1)
	db.AddNode(&Node{DSN: 1, Type: asi.DeviceEndpoint, Ports: 1, Path: route.Path{},
		PortKnown: []bool{true}, PortActive: []bool{true}})
	db.AddNode(&Node{DSN: 10, Type: asi.DeviceSwitch, Ports: 4, Path: route.Path{}, ArrivalPort: 0,
		PortKnown: []bool{true, true, true, true}, PortActive: []bool{true, true, true, false}})
	db.AddNode(&Node{DSN: 11, Type: asi.DeviceSwitch, Ports: 4, ArrivalPort: 0,
		Path:      route.Path{{Ports: 4, In: 0, Out: 1}},
		PortKnown: []bool{true, true, true, true}, PortActive: []bool{true, true, true, true}})
	db.AddNode(&Node{DSN: 2, Type: asi.DeviceEndpoint, Ports: 1, ArrivalPort: 0,
		Path:      route.Path{{Ports: 4, In: 0, Out: 1}, {Ports: 4, In: 0, Out: 3}},
		PortKnown: []bool{true}, PortActive: []bool{true}})
	db.AddLink(Link{A: 1, APort: 0, B: 10, BPort: 0})
	db.AddLink(Link{A: 10, APort: 1, B: 11, BPort: 0})
	db.AddLink(Link{A: 10, APort: 2, B: 11, BPort: 2}) // parallel link
	db.AddLink(Link{A: 11, APort: 3, B: 2, BPort: 0})
	return db
}

func TestDBAddNodeDedup(t *testing.T) {
	db := NewDB(1)
	if !db.AddNode(&Node{DSN: 5, Type: asi.DeviceSwitch, Ports: 4}) {
		t.Error("first insert rejected")
	}
	if db.AddNode(&Node{DSN: 5, Type: asi.DeviceSwitch, Ports: 4}) {
		t.Error("duplicate insert accepted")
	}
	if db.NumNodes() != 1 {
		t.Errorf("NumNodes = %d", db.NumNodes())
	}
}

func TestDBLinkNormalization(t *testing.T) {
	db := NewDB(1)
	db.AddNode(&Node{DSN: 3, Type: asi.DeviceSwitch, Ports: 8})
	db.AddNode(&Node{DSN: 7, Type: asi.DeviceSwitch, Ports: 8})
	db.AddLink(Link{A: 7, APort: 2, B: 3, BPort: 5})
	db.AddLink(Link{A: 3, APort: 5, B: 7, BPort: 2}) // same cable, other side
	if db.NumLinks() != 1 {
		t.Errorf("NumLinks = %d, want 1", db.NumLinks())
	}
	if !db.HasLink(Link{A: 7, APort: 2, B: 3, BPort: 5}) {
		t.Error("HasLink false for recorded link")
	}
	if !db.HasLink(Link{A: 3, APort: 5, B: 7, BPort: 2}) {
		t.Error("HasLink false for flipped orientation")
	}
	if l, ok := db.LinkAt(7, 2); !ok || l.normalize() != (Link{A: 3, APort: 5, B: 7, BPort: 2}).normalize() {
		t.Errorf("LinkAt = %+v, %v", l, ok)
	}
	if _, ok := db.LinkAt(7, 9); ok {
		t.Error("LinkAt found a link on an uncabled port")
	}
}

func TestDBLinkNormalizeProperty(t *testing.T) {
	f := func(a, b uint32, ap, bp uint8) bool {
		l1 := Link{A: asi.DSN(a), APort: int(ap), B: asi.DSN(b), BPort: int(bp)}
		l2 := Link{A: asi.DSN(b), APort: int(bp), B: asi.DSN(a), BPort: int(ap)}
		return l1.normalize() == l2.normalize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBPathToAdjacent(t *testing.T) {
	db := buildTestDB()
	p, arrive := db.PathTo(10)
	if p == nil || len(p) != 0 {
		t.Fatalf("path to adjacent switch = %v", p)
	}
	if arrive != 0 {
		t.Errorf("arrival port = %d, want 0", arrive)
	}
}

func TestDBPathToMultiHop(t *testing.T) {
	db := buildTestDB()
	p, arrive := db.PathTo(2)
	if len(p) != 2 {
		t.Fatalf("path to far endpoint = %v", p)
	}
	// First hop crosses switch A from its arrival port 0 to port 1 or 2
	// (parallel links; BFS picks the lowest local port).
	if p[0].In != 0 || (p[0].Out != 1 && p[0].Out != 2) {
		t.Errorf("hop 0 = %+v", p[0])
	}
	if p[1].Out != 3 {
		t.Errorf("hop 1 = %+v", p[1])
	}
	if arrive != 0 {
		t.Errorf("arrival port = %d", arrive)
	}
}

func TestDBPathToUnreachable(t *testing.T) {
	db := buildTestDB()
	db.RemoveLink(Link{A: 10, APort: 1, B: 11, BPort: 0})
	// Still reachable over the parallel link.
	if p, _ := db.PathTo(2); p == nil {
		t.Fatal("redundant link not used")
	}
	db.RemoveLink(Link{A: 10, APort: 2, B: 11, BPort: 2})
	if p, _ := db.PathTo(2); p != nil {
		t.Fatalf("unreachable endpoint got path %v", p)
	}
	if p, _ := db.PathTo(999); p != nil {
		t.Error("unknown DSN got a path")
	}
}

func TestDBEndpointsDoNotForward(t *testing.T) {
	// host -- epX -- sw: a path "through" an endpoint must not exist.
	db := NewDB(1)
	db.AddNode(&Node{DSN: 1, Type: asi.DeviceEndpoint, Ports: 1, PortKnown: []bool{true}, PortActive: []bool{true}})
	db.AddNode(&Node{DSN: 2, Type: asi.DeviceEndpoint, Ports: 2, PortKnown: []bool{true, true}, PortActive: []bool{true, true}})
	db.AddNode(&Node{DSN: 10, Type: asi.DeviceSwitch, Ports: 4, PortKnown: make([]bool, 4), PortActive: make([]bool, 4)})
	db.AddLink(Link{A: 1, APort: 0, B: 2, BPort: 0})
	db.AddLink(Link{A: 2, APort: 1, B: 10, BPort: 0})
	if p, _ := db.PathTo(10); p != nil {
		t.Errorf("path through endpoint: %v", p)
	}
}

func TestDBRemoveNodeDropsLinks(t *testing.T) {
	db := buildTestDB()
	db.RemoveNode(11)
	if db.Node(11) != nil {
		t.Error("node still present")
	}
	if db.NumLinks() != 1 { // only host--swA remains
		t.Errorf("NumLinks = %d, want 1", db.NumLinks())
	}
	if p, _ := db.PathTo(2); p != nil {
		t.Error("path survives through removed node")
	}
}

func TestDBReachableFromHost(t *testing.T) {
	db := buildTestDB()
	seen := db.ReachableFromHost()
	if len(seen) != 4 {
		t.Errorf("reachable = %d, want 4", len(seen))
	}
	db.RemoveNode(10)
	seen = db.ReachableFromHost()
	if len(seen) != 1 {
		t.Errorf("reachable after cut = %d, want 1", len(seen))
	}
	empty := NewDB(42)
	if len(empty.ReachableFromHost()) != 0 {
		t.Error("empty DB reachable nonzero")
	}
}

func TestDBNeighborsSorted(t *testing.T) {
	db := buildTestDB()
	nbs := db.NeighborsOf(10)
	if len(nbs) != 3 {
		t.Fatalf("NeighborsOf(10) = %v", nbs)
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i].LocalPort < nbs[i-1].LocalPort {
			t.Error("neighbors not sorted by local port")
		}
	}
}

func TestDBNodesAndLinksSorted(t *testing.T) {
	db := buildTestDB()
	nodes := db.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i].DSN < nodes[i-1].DSN {
			t.Error("nodes not sorted")
		}
	}
	links := db.Links()
	if len(links) != 4 {
		t.Errorf("Links() = %d entries", len(links))
	}
	if db.String() == "" {
		t.Error("empty String")
	}
}

func TestDBPathBetweenEndpoints(t *testing.T) {
	db := buildTestDB()
	p := db.PathBetween(2, 1)
	if len(p) != 2 {
		t.Fatalf("PathBetween(2,1) = %v", p)
	}
	// Reverse direction exists too and has the same length.
	q := db.PathBetween(1, 2)
	if len(q) != len(p) {
		t.Errorf("asymmetric path lengths %d vs %d", len(p), len(q))
	}
	if db.PathBetween(99, 1) != nil {
		t.Error("unknown source got a path")
	}
}

func TestNodePortsRead(t *testing.T) {
	n := &Node{PortKnown: []bool{true, false}}
	if n.PortsRead() {
		t.Error("incomplete ports reported read")
	}
	n.PortKnown[1] = true
	if !n.PortsRead() {
		t.Error("complete ports reported unread")
	}
}

// AddLink records a cable only between known devices, on ports they
// have, and never over a port already cabled to someone else.
func TestDBAddLinkContract(t *testing.T) {
	cases := []struct {
		name string
		link Link
		want bool
	}{
		{"new link between free ports", Link{A: 10, APort: 3, B: 11, BPort: 1}, true},
		{"recorded link again", Link{A: 10, APort: 1, B: 11, BPort: 0}, true},
		{"recorded link, other orientation", Link{A: 11, APort: 0, B: 10, BPort: 1}, true},
		{"unknown endpoint", Link{A: 10, APort: 3, B: 99, BPort: 0}, false},
		{"unknown endpoint, other side", Link{A: 99, APort: 0, B: 10, BPort: 3}, false},
		{"port at the port count", Link{A: 10, APort: 4, B: 11, BPort: 1}, false},
		{"port above the port count", Link{A: 10, APort: 3, B: 2, BPort: 7}, false},
		{"negative port", Link{A: 10, APort: -1, B: 11, BPort: 1}, false},
		{"slot held by a different peer", Link{A: 10, APort: 1, B: 11, BPort: 1}, false},
		{"far slot held by a different peer", Link{A: 10, APort: 3, B: 11, BPort: 0}, false},
		{"both slots held, crossed", Link{A: 10, APort: 1, B: 11, BPort: 2}, false},
		{"port cabled to itself", Link{A: 10, APort: 3, B: 10, BPort: 3}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := buildTestDB()
			before := db.Fingerprint()
			if got := db.AddLink(c.link); got != c.want {
				t.Fatalf("AddLink(%+v) = %v, want %v", c.link, got, c.want)
			}
			if got := db.HasLink(c.link); got != c.want {
				t.Errorf("HasLink after AddLink = %v, want %v", got, c.want)
			}
			if !c.want && db.Fingerprint() != before {
				t.Error("a refused link changed the database")
			}
			if err := db.Check(); err != nil {
				t.Errorf("Check: %v", err)
			}
		})
	}
}

// A cable between two ports of one switch is one link, walked from
// either port.
func TestDBLoopbackCable(t *testing.T) {
	db := buildTestDB()
	db.RemoveNode(2) // frees switch 11's port 3
	if !db.AddLink(Link{A: 11, APort: 3, B: 11, BPort: 1}) {
		t.Fatal("loopback between free ports refused")
	}
	if db.NumLinks() != 4 || len(db.Links()) != 4 {
		t.Fatalf("NumLinks = %d, Links = %v", db.NumLinks(), db.Links())
	}
	if l, ok := db.LinkAt(11, 3); !ok || l != (Link{A: 11, APort: 1, B: 11, BPort: 3}) {
		t.Errorf("LinkAt(11, 3) = %+v, %v", l, ok)
	}
	db.RemoveNode(11)
	if db.NumLinks() != 1 {
		t.Errorf("NumLinks after removing the looped switch = %d, want 1", db.NumLinks())
	}
	if err := db.Check(); err != nil {
		t.Error(err)
	}
}

// Mutating a clone — links, port flags, paths — leaves the original
// untouched: Clone shares no slice with it.
func TestDBCloneIsDeep(t *testing.T) {
	db := buildTestDB()
	fp, links := db.Fingerprint(), db.Links()
	c := db.Clone()
	if c.Fingerprint() != fp || c.NumLinks() != db.NumLinks() {
		t.Fatal("clone differs from the original")
	}
	c.RemoveLink(Link{A: 10, APort: 1, B: 11, BPort: 0})
	c.AddLink(Link{A: 10, APort: 3, B: 11, BPort: 1})
	n := c.Node(11)
	n.PortKnown[0], n.PortActive[0] = false, false
	n.Path[0].Out = 3
	c.RemoveNode(2)
	if db.Fingerprint() != fp || len(db.Links()) != len(links) {
		t.Error("mutating the clone's links changed the original")
	}
	if l, ok := db.LinkAt(10, 1); !ok || l != (Link{A: 10, APort: 1, B: 11, BPort: 0}) {
		t.Errorf("original LinkAt(10, 1) = %+v, %v", l, ok)
	}
	if _, ok := db.LinkAt(10, 3); ok {
		t.Error("link added to the clone shows in the original")
	}
	o := db.Node(11)
	if !o.PortKnown[0] || !o.PortActive[0] || o.Path[0].Out != 1 {
		t.Error("mutating the clone's node changed the original's flags or path")
	}
	if err := db.Check(); err != nil {
		t.Errorf("original: %v", err)
	}
}

// Check accepts a consistent database and names each kind of damage.
func TestDBCheck(t *testing.T) {
	if err := buildTestDB().Check(); err != nil {
		t.Fatalf("consistent database rejected: %v", err)
	}
	cases := []struct {
		name   string
		damage func(db *DB)
		want   string
	}{
		{"one-sided slot", func(db *DB) { db.Node(11).links[1] = slot{dsn: 10, port: 3, ok: true} }, "does not link back"},
		{"slot names an unknown device", func(db *DB) { db.Node(10).links[3] = slot{dsn: 77, port: 0, ok: true} }, "which is unknown"},
		{"slot names a port out of range", func(db *DB) { db.Node(10).links[3] = slot{dsn: 2, port: 5, ok: true} }, "which is unknown"},
		{"link count drift", func(db *DB) { db.nlinks++ }, "NumLinks is 5 but 8 slots are filled"},
		{"slot count drift", func(db *DB) { db.Node(10).links = db.Node(10).links[:3] }, "3 link slots for 4 ports"},
		{"path over a removed link", func(db *DB) { db.RemoveLink(Link{A: 10, APort: 1, B: 11, BPort: 0}) }, "does not walk"},
		{"wrong arrival port", func(db *DB) { db.Node(2).ArrivalPort = 1 }, "does not walk"},
		{"hop through an endpoint", func(db *DB) { db.Node(2).Path = route.Path{{Ports: 1, In: 0, Out: 0}} }, "does not walk"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := buildTestDB()
			c.damage(db)
			err := db.Check()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Check() = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// refPathTo is the per-target search the PathTree replaced: a fresh
// breadth-first search over NeighborsOf for every target. PathTree must
// route every device exactly as it did.
func refPathTo(db *DB, target asi.DSN) (route.Path, int) {
	type pr struct {
		from               asi.DSN
		fromPort, arrivePt int
	}
	src := db.HostDSN
	if db.Node(src) == nil {
		return nil, 0
	}
	if target == src {
		return route.Path{}, 0
	}
	prev := map[asi.DSN]pr{}
	seen := map[asi.DSN]bool{src: true}
	queue := []asi.DSN{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur != src && db.Node(cur).Type != asi.DeviceSwitch {
			continue
		}
		for _, nb := range db.NeighborsOf(cur) {
			if db.Node(nb.DSN) == nil || seen[nb.DSN] {
				continue
			}
			seen[nb.DSN] = true
			prev[nb.DSN] = pr{cur, nb.LocalPort, nb.RemotePort}
			queue = append(queue, nb.DSN)
		}
	}
	if _, ok := prev[target]; !ok {
		return nil, 0
	}
	hops := route.Path{}
	for at := target; at != src; at = prev[at].from {
		if p := prev[at]; p.from != src {
			hops = append(route.Path{{Ports: db.Node(p.from).Ports, In: prev[p.from].arrivePt, Out: p.fromPort}}, hops...)
		}
	}
	return hops, prev[target].arrivePt
}

func TestPathTreeMatchesPerTargetSearch(t *testing.T) {
	for _, tp := range []*topo.Topology{topo.Mesh(4, 4), topo.Torus(3, 5), topo.FatTree(4, 2)} {
		e, _, m := setup(t, tp, Parallel)
		runDiscovery(t, e, m)
		db := m.DB()
		if err := db.Check(); err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		// Cut a few links so some routes detour and some devices strand.
		for i, l := range db.Links() {
			if i%5 == 2 {
				db.RemoveLink(l)
			}
		}
		tree := db.PathTree()
		for _, n := range db.Nodes() {
			got, gotArr := tree.PathTo(n.DSN)
			want, wantArr := refPathTo(db, n.DSN)
			if (got == nil) != (want == nil) || !pathEqual(got, want) || gotArr != wantArr {
				t.Errorf("%s: %v routed %v arriving %d, per-target search %v arriving %d",
					tp.Name, n.DSN, got, gotArr, want, wantArr)
			}
			if tree.Reachable(n.DSN) != (want != nil) {
				t.Errorf("%s: Reachable(%v) = %v", tp.Name, n.DSN, tree.Reachable(n.DSN))
			}
		}
	}
}
