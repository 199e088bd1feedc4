package topo

import "fmt"

// Spec identifies one topology from the paper's Table 1 together with its
// expected device counts, which double as a regression check on the
// generators.
type Spec struct {
	Name      string
	Switches  int
	Endpoints int
	Build     func() *Topology
}

// Total returns the expected total device count.
func (s Spec) Total() int { return s.Switches + s.Endpoints }

// Table1 returns the paper's Table 1 catalogue of evaluated topologies, in
// the paper's order: meshes and tori from 3x3 to 8x8, the 10x10 torus, and
// the four fat-trees.
func Table1() []Spec {
	specs := []Spec{
		{"3x3 mesh", 9, 9, func() *Topology { return Mesh(3, 3) }},
		{"3x3 torus", 9, 9, func() *Topology { return Torus(3, 3) }},
		{"4x4 mesh", 16, 16, func() *Topology { return Mesh(4, 4) }},
		{"4x4 torus", 16, 16, func() *Topology { return Torus(4, 4) }},
		{"6x6 mesh", 36, 36, func() *Topology { return Mesh(6, 6) }},
		{"6x6 torus", 36, 36, func() *Topology { return Torus(6, 6) }},
		{"8x8 mesh", 64, 64, func() *Topology { return Mesh(8, 8) }},
		{"8x8 torus", 64, 64, func() *Topology { return Torus(8, 8) }},
		{"10x10 torus", 100, 100, func() *Topology { return Torus(10, 10) }},
		{"4-port 2-tree", 6, 8, func() *Topology { return FatTree(4, 2) }},
		{"4-port 3-tree", 20, 16, func() *Topology { return FatTree(4, 3) }},
		{"4-port 4-tree", 56, 32, func() *Topology { return FatTree(4, 4) }},
		{"8-port 2-tree", 12, 32, func() *Topology { return FatTree(8, 2) }},
	}
	return specs
}

// Extended returns the post-paper generator families' representative
// catalogue entries: dragonfly D3(K,M) fabrics and auto-designed
// two-layer fat-trees. Like Table1, the listed device counts double as a
// regression check on the generators; the chaos corpus executes every
// catalogue entry.
func Extended() []Spec {
	return []Spec{
		{"dragonfly 4x6", 24, 24, func() *Topology { return Dragonfly(4, 6) }},
		{"dragonfly 8x17", 136, 136, func() *Topology { return Dragonfly(8, 17) }},
		{"autofat 8x32", 12, 32, func() *Topology {
			return AutoFatTree(AutoFatTreeSpec{Ports: 8, Endpoints: 32})
		}},
		{"autofat 24x288", 36, 288, func() *Topology {
			return AutoFatTree(AutoFatTreeSpec{Ports: 24, Endpoints: 288})
		}},
	}
}

// Catalogue returns every named topology: the paper's Table 1 followed by
// the extended generator families.
func Catalogue() []Spec {
	return append(Table1(), Extended()...)
}

// ByName builds the named topology: an exact catalogue entry, or any
// parametric family name (see ParseName).
func ByName(name string) (*Topology, error) {
	for _, s := range Catalogue() {
		if s.Name == name {
			return s.Build(), nil
		}
	}
	return ParseName(name)
}

// MaxParsedSwitches and MaxParsedPorts cap the fabrics ParseName builds,
// so a mistyped or hostile name ("8-port 20-tree" describes ~10^13
// switches) fails before anything is allocated. The switch cap admits
// dragonfly 16x625, the largest ext-scale fabric (10,000 switches); the
// port cap, summed over every device's ports, also bounds the device and
// link counts.
const (
	MaxParsedSwitches = 1 << 14
	MaxParsedPorts    = 1 << 20
)

// Dims is the size of a parametric fabric: its switch and endpoint
// counts and the port slots summed over all of its devices.
type Dims struct {
	Switches, Endpoints, Ports int
}

// family is a parametric topology family ParseName understands.
type family int

const (
	familyDragonfly family = iota
	familyAutofat
	familyFatTree
	familyMesh
	familyTorus
)

// parsedName is a recognised parametric name: its family, the family's
// two parameters and the size they describe.
type parsedName struct {
	fam  family
	a, b int
	Dims
}

// sizeLimit is where size arithmetic saturates: any count at or above it
// already exceeds both caps, so satMul and satAdd never overflow.
const sizeLimit = MaxParsedPorts + 1

func satMul(a, b int) int {
	if a != 0 && b > sizeLimit/a {
		return sizeLimit
	}
	return min(a*b, sizeLimit)
}

func satAdd(a, b int) int { return min(a+b, sizeLimit) }

func satPow(b, e int) int {
	r := 1
	for i := 0; i < e && r < sizeLimit && b > 1; i++ {
		r = satMul(r, b)
	}
	return r
}

// parseName recognises a parametric family name, checks its parameters'
// ranges and sizes the fabric without building it.
func parseName(name string) (parsedName, error) {
	var p parsedName
	var kind string
	switch {
	case scan(name, "dragonfly %dx%d", &p.a, &p.b):
		if p.a < 2 || p.b < 2 {
			return p, fmt.Errorf("topo: dragonfly %dx%d needs K >= 2 and M >= 2", p.a, p.b)
		}
		p.fam = familyDragonfly
	case scan(name, "autofat %dx%d", &p.a, &p.b):
		p.fam = familyAutofat
	case scan(name, "%d-port %d-tree", &p.a, &p.b):
		if p.a < 2 || p.a%2 != 0 || p.b < 2 {
			return p, fmt.Errorf("topo: fat-tree %q needs an even port count >= 2 and depth >= 2", name)
		}
		p.fam = familyFatTree
	case scan(name, "%dx%d %s", &p.a, &p.b, &kind) && (kind == "mesh" || kind == "torus"):
		if p.a < 2 || p.b < 2 {
			return p, fmt.Errorf("topo: grid %q needs both dimensions >= 2", name)
		}
		p.fam = familyMesh
		if kind == "torus" {
			p.fam = familyTorus
		}
	default:
		return p, fmt.Errorf("topo: unknown topology %q (catalogue names, or parametric: %q, %q, %q, %q, %q)",
			name, "RxC mesh", "RxC torus", "M-port N-tree", "dragonfly KxM", "autofat PxN")
	}
	tooLarge := fmt.Errorf("topo: %q exceeds the size cap (%d switches, %d port slots)", name, MaxParsedSwitches, MaxParsedPorts)
	// Every parameter is bounded by the switch or port count it implies,
	// so capping the parameters first keeps the arithmetic below small.
	if p.a >= sizeLimit || p.b >= sizeLimit {
		return p, tooLarge
	}
	a, b := p.a, p.b
	switch p.fam {
	case familyDragonfly:
		h := (b - 2 + a) / a
		p.Switches = satMul(a, b)
		p.Endpoints = p.Switches
		p.Ports = satAdd(satMul(p.Switches, (a-1)+h+EndpointReserve), p.Endpoints)
	case familyAutofat:
		design, err := AutoFatTreeSpec{Ports: a, Endpoints: b}.Design()
		if err != nil {
			return p, err
		}
		p.Switches = design.Leaves + design.Spines
		p.Endpoints = b
		p.Ports = satAdd(satMul(p.Switches, a), p.Endpoints)
	case familyFatTree:
		h := a / 2
		p.Switches = satMul(2*b-1, satPow(h, b-1))
		p.Endpoints = satMul(2, satPow(h, b))
		p.Ports = satAdd(satMul(p.Switches, a), p.Endpoints)
	default:
		p.Switches = satMul(a, b)
		p.Endpoints = p.Switches
		p.Ports = satAdd(satMul(p.Switches, GridPorts), p.Endpoints)
	}
	if p.Switches > MaxParsedSwitches || p.Ports > MaxParsedPorts {
		return p, tooLarge
	}
	return p, nil
}

// scan reports whether name matches format, filling every operand.
func scan(name, format string, operands ...any) bool {
	n, _ := fmt.Sscanf(name, format, operands...)
	return n == len(operands)
}

// ParseDims sizes the fabric a parametric family name describes without
// building it. It rejects what ParseName rejects, including fabrics above
// MaxParsedSwitches or MaxParsedPorts.
func ParseDims(name string) (Dims, error) {
	p, err := parseName(name)
	return p.Dims, err
}

// ParseName builds a topology from a parametric family name, so tools and
// scenario specs can reference arbitrary instances without a catalogue
// entry:
//
//	"RxC mesh"        Mesh(R, C), R and C >= 2
//	"RxC torus"       Torus(R, C), R and C >= 2
//	"M-port N-tree"   FatTree(M, N), M even >= 2, N >= 2
//	"dragonfly KxM"   Dragonfly(K, M), K and M >= 2
//	"autofat PxN"     AutoFatTree of radix P attaching N endpoints
//
// Fabrics above MaxParsedSwitches or MaxParsedPorts are refused.
func ParseName(name string) (*Topology, error) {
	p, err := parseName(name)
	if err != nil {
		return nil, err
	}
	switch p.fam {
	case familyDragonfly:
		return Dragonfly(p.a, p.b), nil
	case familyAutofat:
		return AutoFatTree(AutoFatTreeSpec{Ports: p.a, Endpoints: p.b}), nil
	case familyFatTree:
		return FatTree(p.a, p.b), nil
	case familyMesh:
		return Mesh(p.a, p.b), nil
	default:
		return Torus(p.a, p.b), nil
	}
}

// Names lists the catalogue topology names in order: Table 1 first, then
// the extended families.
func Names() []string {
	specs := Catalogue()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
