package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// sizeClass is one band of the object-size mix: share of the
// checkpoint's bytes held by objects of min..max bytes.
type sizeClass struct {
	name     string
	share    float64
	min, max int
}

// llmMix is the object-size mix of one rank's LLM training checkpoint
// after Gossman et al.'s characterization (PAPERS.md): a handful of
// large tensors hold most of the bytes, optimizer/layer shards the
// middle, and hundreds of small metadata and scalar objects the rest.
var llmMix = []sizeClass{
	{"tensor", 0.60, 8 << 20, 32 << 20},
	{"shard", 0.35, 256 << 10, 2 << 20},
	{"meta", 0.05, 1 << 10, 64 << 10},
}

// smallMix is the general-purpose workload: many small objects.
var smallMix = []sizeClass{
	{"obj", 1.0, 4 << 10, 64 << 10},
}

// object is one named variable of a checkpoint: a window of the
// payload buffer plus what verification expects of it.
type object struct {
	name string
	data []byte
	crc  uint32
}

// payload is one generated checkpoint state.
type payload struct {
	buf     []byte   // the bytes the objects are windows of
	objects []object // in write order
	bytes   int64
	byName  map[string]*object
}

// classSizes draws object sizes for one class so that they sum to
// budget exactly. Sizes are stratified: the i-th of n objects falls in
// the i-th of n equal slices of [min,max], at a seeded position inside
// its slice. Every seed therefore sees nearly the same size histogram
// (run-to-run spread across seeds measures the system, not the draw)
// while no two seeds see the same sizes. What the draw leaves over or
// under the budget is spread evenly over the class's objects, which can
// push a size slightly outside the band.
func classSizes(rng *rand.Rand, c sizeClass, budget int64) []int {
	mean := float64(c.min+c.max) / 2
	n := int(float64(budget)/mean + 0.5)
	if n < 1 {
		n = 1
	}
	sizes := make([]int, n)
	var total int64
	for i := range sizes {
		pos := (float64(i) + rng.Float64()) / float64(n)
		sizes[i] = c.min + int(pos*float64(c.max-c.min))
		total += int64(sizes[i])
	}
	// Spread the difference over all objects, then put what integer
	// division leaves on the last one.
	diff := budget - total
	per := diff / int64(n)
	for i := range sizes {
		sizes[i] += int(per)
	}
	sizes[n-1] += int(diff - per*int64(n))
	if sizes[n-1] < 1 {
		// Only reachable with a budget far below one object; fold the
		// class into a single object of the whole budget.
		return []int{int(budget)}
	}
	return sizes
}

// genSizes returns the object sizes (with their class names) of one
// checkpoint of exactly total bytes, in seeded write order.
func genSizes(seed int64, mix []sizeClass, total int64) (names []string, sizes []int) {
	rng := rand.New(rand.NewSource(seed))
	var used int64
	for ci, c := range mix {
		budget := int64(float64(total) * c.share)
		if ci == len(mix)-1 {
			budget = total - used
		}
		used += budget
		for i, s := range classSizes(rng, c, budget) {
			names = append(names, fmt.Sprintf("%s.%04d", c.name, i))
			sizes = append(sizes, s)
		}
	}
	rng.Shuffle(len(sizes), func(i, j int) {
		names[i], names[j] = names[j], names[i]
		sizes[i], sizes[j] = sizes[j], sizes[i]
	})
	return names, sizes
}

// fillRandom writes incompressible bytes (xorshift64*), 8 at a time.
func fillRandom(b []byte, state *uint64) {
	x := *state
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(b[i:], x*0x2545F4914F6CDD1D)
	}
	for ; i < len(b); i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		b[i] = byte(x * 0x2545F4914F6CDD1D >> 56)
	}
	*state = x
}

// fillCompressible writes bytes an LZ77 codec halves: every 64 random
// bytes are followed by a copy of themselves.
func fillCompressible(b []byte, state *uint64) {
	const unit = 64
	for off := 0; off < len(b); off += 2 * unit {
		end := off + unit
		if end > len(b) {
			end = len(b)
		}
		fillRandom(b[off:end], state)
		copy(b[end:], b[off:end])
	}
}

// genPayload builds one checkpoint of exactly total bytes. The same
// (seed, mix, total, compressible) always yields the same objects.
func genPayload(seed int64, mix []sizeClass, total int64, compressible bool) *payload {
	return genPayloadInto(make([]byte, total), seed, mix, compressible)
}

// genPayloadInto is genPayload over a buffer the caller reuses from
// epoch to epoch: on this VM heap pages handed back to the OS and
// faulted in again cost several times a warm page, and 128 MiB of that
// per epoch shows as run-to-run noise.
func genPayloadInto(buf []byte, seed int64, mix []sizeClass, compressible bool) *payload {
	state := uint64(seed)*0x9E3779B97F4A7C15 | 1
	if compressible {
		fillCompressible(buf, &state)
	} else {
		fillRandom(buf, &state)
	}
	return layout(seed, mix, buf)
}

// layout cuts buf into one checkpoint's objects: seeded sizes in seeded
// order. Several layouts may share one buffer; how fast a step commits
// depends on where its large objects fall, so a workload that gives
// every step its own layout averages over that instead of measuring one
// draw many times.
func layout(seed int64, mix []sizeClass, buf []byte) *payload {
	total := int64(len(buf))
	names, sizes := genSizes(seed, mix, total)
	p := &payload{buf: buf, bytes: total, byName: make(map[string]*object, len(names))}
	p.objects = make([]object, len(names))
	off := 0
	for i, n := range names {
		data := buf[off : off+sizes[i] : off+sizes[i]]
		off += sizes[i]
		p.objects[i] = object{name: n, data: data, crc: crc32.ChecksumIEEE(data)}
		p.byName[n] = &p.objects[i]
	}
	return p
}

// verify compares a restored state with the generator's: same object
// set, and the same length and CRC32 for every object.
func (p *payload) verify(state map[string][]byte) error {
	if len(state) != len(p.objects) {
		return fmt.Errorf("restored %d objects, generated %d", len(state), len(p.objects))
	}
	for name, got := range state {
		if err := p.verifyObject(name, got); err != nil {
			return err
		}
	}
	return nil
}

func (p *payload) verifyObject(name string, got []byte) error {
	want, ok := p.byName[name]
	if !ok {
		return fmt.Errorf("restored unknown object %q", name)
	}
	if len(got) != len(want.data) {
		return fmt.Errorf("object %q: %d bytes restored, %d generated", name, len(got), len(want.data))
	}
	if crc32.ChecksumIEEE(got) != want.crc {
		return fmt.Errorf("object %q: CRC32 mismatch", name)
	}
	return nil
}
