package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// This file folds a runtime/pprof CPU profile by layer. It decodes just
// the parts of the profile.proto encoding the fold needs (samples with
// their labels, locations, functions, the string table), which keeps the
// benchmark free of modules the repository does not already require.

// cpuFold is CPU time per layer, summed over the profile's samples.
type cpuFold map[string]time.Duration

// layerOf names the layer a sample belongs to: the innermost frame in a
// repro/internal package, with core's topology-database methods split out
// as "core.db". Samples with no such frame (runtime, GC, the benchmark's
// own code) fold into "other".
func layerOf(frames []string) string {
	const prefix = "repro/internal/"
	for _, fn := range frames {
		if !strings.HasPrefix(fn, prefix) {
			continue
		}
		rest := fn[len(prefix):]
		pkg := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			pkg = rest[:i]
		}
		if pkg == "core" && strings.HasPrefix(rest, "core.(*DB).") {
			return "core.db"
		}
		return pkg
	}
	return "other"
}

// foldProfile decodes a gzipped CPU profile and sums each sample's CPU
// time by layer. keep decides from a sample's "span" label (empty when
// unlabelled) whether the sample counts.
func foldProfile(gz []byte, keep func(span string) bool) (cpuFold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := cpuFold{}
	spanKey := p.strIndex("span")
	for _, s := range p.samples {
		span := ""
		for _, l := range s.labels {
			if l.key == spanKey {
				span = p.str(l.str)
			}
		}
		if !keep(span) {
			continue
		}
		var frames []string
		for _, id := range s.locations {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.str(p.funcName[fid]))
			}
		}
		// CPU profiles carry [samples count, cpu nanoseconds].
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		out[layerOf(frames)] += time.Duration(s.values[1])
	}
	return out, nil
}

type pbSample struct {
	locations []uint64
	values    []int64
	labels    []pbLabel
}

type pbLabel struct{ key, str int64 }

type pbProfile struct {
	samples  []pbSample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> name string index
	strings  []string
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func (p *pbProfile) strIndex(s string) int64 {
	for i, v := range p.strings {
		if v == s {
			return int64(i)
		}
	}
	return -1
}

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// decodeProfile reads the profile.proto fields the fold uses: sample (2),
// location (4), function (5) and string_table (6).
func decodeProfile(raw []byte) (*pbProfile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		if f.num == 6 {
			p.strings = append(p.strings, string(f.data))
			continue
		}
		if f.num != 2 && f.num != 4 && f.num != 5 {
			continue
		}
		fields, err := pbFields(f.data)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case 2: // Sample
			var s pbSample
			for _, sf := range fields {
				switch sf.num {
				case 1:
					if s.locations, err = pbUints(s.locations, sf); err != nil {
						return nil, err
					}
				case 2:
					var vs []uint64
					if vs, err = pbUints(nil, sf); err != nil {
						return nil, err
					}
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				case 3:
					lf, err := pbFields(sf.data)
					if err != nil {
						return nil, err
					}
					var l pbLabel
					for _, x := range lf {
						switch x.num {
						case 1:
							l.key = int64(x.value)
						case 2:
							l.str = int64(x.value)
						}
					}
					s.labels = append(s.labels, l)
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fids []uint64
			for _, lf := range fields {
				switch lf.num {
				case 1:
					id = lf.value
				case 4: // Line
					lines, err := pbFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, x := range lines {
						if x.num == 1 {
							fids = append(fids, x.value)
						}
					}
				}
			}
			p.locLines[id] = fids
		case 5: // Function
			var id uint64
			var name int64
			for _, ff := range fields {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = int64(ff.value)
				}
			}
			p.funcName[id] = name
		}
	}
	return p, nil
}
