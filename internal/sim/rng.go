package sim

import (
	"hash/fnv"
	"math/rand"
)

// Source produces independent, named random streams from a single seed.
// Deriving streams by name (instead of sharing one *rand.Rand) keeps a
// simulation reproducible even when the order in which components draw
// random numbers changes.
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Seed returns the root seed.
func (s *Source) Seed() uint64 { return s.seed }

// Stream returns a deterministic PRNG for the given name. Calling Stream
// twice with the same name yields streams with identical output.
// The generator is a bit-exact copy of rand.NewSource's with faster
// seeding (see lfsource.go), so every stream matches
// rand.New(rand.NewSource(seed)) draw for draw.
func (s *Source) Stream(name string) *rand.Rand {
	src := new(lfSource)
	src.Seed(s.streamSeed(name))
	return rand.New(src)
}

// StreamInto re-seeds r to the exact initial state Stream(name) would
// return, avoiding the ~5 KB source allocation — the path for callers
// that pool their PRNGs across a stream of jobs. A nil r allocates a
// fresh stream; either way the returned PRNG's output is identical to
// Stream(name)'s.
func (s *Source) StreamInto(r *rand.Rand, name string) *rand.Rand {
	if r == nil {
		return s.Stream(name)
	}
	r.Seed(s.streamSeed(name))
	return r
}

func (s *Source) streamSeed(name string) int64 {
	h := fnv.New64a()
	// Mix the seed in first so different seeds fully decorrelate streams.
	var b [8]byte
	v := s.seed
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}

// Sub derives a child source, useful for giving a subsystem its own
// namespace of streams.
func (s *Source) Sub(name string) *Source {
	h := fnv.New64a()
	var b [8]byte
	v := s.seed
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte("sub:"))
	_, _ = h.Write([]byte(name))
	return &Source{seed: h.Sum64()}
}
