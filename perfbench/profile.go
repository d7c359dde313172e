package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repository packages whose CPU share the traced run
// reports, named after their directories under internal/.
var layers = []string{"sim", "cluster", "yarn", "hdfs", "mapreduce",
	"core", "tuner", "mrconf", "metrics", "trace", "experiments"}

const repoPrefix = "repro/internal/"

// Pseudo-layers of the profile fold.
const (
	// layerGC takes samples with no repository frame at all: the
	// runtime's garbage-collector workers, sweeper and scheduler.
	layerGC = "gc"
	// layerOther takes samples whose innermost repository frame is in
	// a package not listed in layers, or in the benchmark itself.
	layerOther = "other"
)

// layerOf attributes one stack, given leaf first, to the layer of its
// innermost repository frame. Allocation and GC-assist work done on
// behalf of a package is therefore charged to that package.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, repoPrefix) {
			// The benchmark is package main in its binary and
			// repro/perfbench in its tests.
			if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/") {
				return layerOther
			}
			continue
		}
		pkg := fn[len(repoPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return layerOther
	}
	return layerGC
}

// usesRNG reports whether any frame of the stack is in math/rand.
func usesRNG(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "math/rand.") {
			return true
		}
	}
	return false
}

// profileFold accumulates CPU-profile samples by layer.
type profileFold struct {
	total   int64
	byLayer map[string]int64
	rng     int64
}

func (f *profileFold) add(stack []string, n int64) {
	if f.byLayer == nil {
		f.byLayer = make(map[string]int64)
	}
	f.total += n
	f.byLayer[layerOf(stack)] += n
	if usesRNG(stack) {
		f.rng += n
	}
}

// share returns the fraction of samples attributed to layer.
func (f *profileFold) share(layer string) float64 {
	if f.total == 0 {
		return 0
	}
	return float64(f.byLayer[layer]) / float64(f.total)
}

// addProfile decodes a gzipped pprof CPU profile and folds each
// sample's stack, weighted by its sample count.
func (f *profileFold) addProfile(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		f.add(stack, s.count)
	}
	return nil
}

// The subset of the pprof profile.proto schema the fold needs.
type pprofSample struct {
	locs  []uint64 // location ids, leaf first
	count int64    // value[0]: the sample count of a CPU profile
}

type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id → function ids, inlined callee first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

func parseProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := pbReader{b: b}
	for r.more() {
		field, wire := r.key()
		switch {
		case field == 2 && wire == 2: // Sample
			var s pprofSample
			sr := pbReader{b: r.bytes()}
			for sr.more() {
				f, w := sr.key()
				switch f {
				case 1:
					s.locs = sr.uints(w, s.locs)
				case 2:
					if vals := sr.uints(w, nil); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				default:
					sr.skip(w)
				}
			}
			r.err = errors.Join(r.err, sr.err)
			p.samples = append(p.samples, s)
		case field == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			lr := pbReader{b: r.bytes()}
			for lr.more() {
				f, w := lr.key()
				switch {
				case f == 1 && w == 0:
					id = lr.varint()
				case f == 4 && w == 2: // Line
					ln := pbReader{b: lr.bytes()}
					for ln.more() {
						lf, lw := ln.key()
						if lf == 1 && lw == 0 {
							fns = append(fns, ln.varint())
						} else {
							ln.skip(lw)
						}
					}
					lr.err = errors.Join(lr.err, ln.err)
				default:
					lr.skip(w)
				}
			}
			r.err = errors.Join(r.err, lr.err)
			p.locFuncs[id] = fns
		case field == 5 && wire == 2: // Function
			var id uint64
			var name int64
			fr := pbReader{b: r.bytes()}
			for fr.more() {
				f, w := fr.key()
				switch {
				case f == 1 && w == 0:
					id = fr.varint()
				case f == 2 && w == 0:
					name = int64(fr.varint())
				default:
					fr.skip(w)
				}
			}
			r.err = errors.Join(r.err, fr.err)
			p.funcName[id] = name
		case field == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(r.bytes()))
		default:
			r.skip(wire)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	for id, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

// pbReader walks protobuf wire format. The first malformed read sets
// err and ends the walk.
type pbReader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated protobuf")

func (r *pbReader) more() bool { return r.err == nil && len(r.b) > 0 }

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.fail()
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.fail()
	return 0
}

func (r *pbReader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
	r.b = nil
}

func (r *pbReader) key() (field, wire int) {
	k := r.varint()
	return int(k >> 3), int(k & 7)
}

func (r *pbReader) bytes() []byte {
	n := r.varint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// uints reads a repeated varint field in either packed (wire 2) or
// unpacked (wire 0) encoding and appends its values to dst.
func (r *pbReader) uints(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, r.varint())
	case 2:
		pr := pbReader{b: r.bytes()}
		for pr.more() {
			dst = append(dst, pr.varint())
		}
		r.err = errors.Join(r.err, pr.err)
		return dst
	}
	r.skip(wire)
	return dst
}

func (r *pbReader) skip(wire int) {
	switch wire {
	case 0:
		r.varint()
	case 1:
		r.advance(8)
	case 2:
		r.bytes()
	case 5:
		r.advance(4)
	default:
		r.err = fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
}

func (r *pbReader) advance(n int) {
	if n > len(r.b) {
		r.fail()
		return
	}
	r.b = r.b[n:]
}
