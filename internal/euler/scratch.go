package euler

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/platform"
)

// Scratch is the host-side backing store for one rank's temporary blocks and
// edge fields: one slab of float64, handed out plane by plane from the front
// and taken back all at once by Reset. It exists because a simulated virtual
// address (platform.Proc.Alloc: append-only, one per plane, what the cache
// model sees) and the host memory behind it are different things: the
// address stream is part of the simulated machine and must not move, the
// host memory is not and can be recycled. Block and EdgeField call Alloc
// once per plane exactly as NewBlock and NewEdgeField do, so a plane built
// here has the address, and every kernel over it the hits, misses and
// clock, of a freshly allocated one.
//
// Recycled storage is not cleared. Every user writes all of a scratch plane
// before reading any of it: InitBlock and CopyFrom cover a block with its
// ghosts and corners, States writes every face of qL and qR, both flux
// kernels every face of the flux field. The poisoned-storage tests hold
// that to be true.
//
// The *Block and *EdgeField headers are recycled too: a Scratch keeps every
// header it has handed out and hands it out again, rewritten from scratch
// with the new geometry, planes and addresses, after the next Reset. So
// Reset's contract covers the header as well as its planes.
//
// A Scratch belongs to one rank and is not safe for concurrent use. A nil
// *Scratch allocates every plane and header from the Go heap, zeroed: the
// persistent case NewBlock and NewEdgeField provide.
type Scratch struct {
	slab []float64
	used int
	// blocks and fields are every header handed out so far; the first
	// nBlocks and nFields of them are in use since the last Reset.
	blocks           []*Block
	fields           []*EdgeField
	nBlocks, nFields int
}

// poisonScratch is PoisonScratchOnReset's switch.
var poisonScratch atomic.Bool

// PoisonScratchOnReset is a test hook: until the returned function is
// called, every Reset of every Scratch fills the slab with signalling NaNs,
// so a kernel that reads recycled storage it has not written computes a NaN
// (and ApplyFluxes panics on it) instead of quietly reading last use's
// values. Results must not depend on it; nothing but tests may call it.
func PoisonScratchOnReset() (undo func()) {
	poisonScratch.Store(true)
	return func() { poisonScratch.Store(false) }
}

// scratchPoisonBits is a signalling NaN with a payload no arithmetic produces.
const scratchPoisonBits = 0x7ff4_dead_beef_0bad

// Reset takes back every plane and header handed out so far and makes room
// for n float64 (BlockFloats and EdgeFieldFloats give a caller its n).
// Blocks and fields built before the call must no longer be used: their
// planes and headers will be handed out again.
func (s *Scratch) Reset(n int) {
	if n > len(s.slab) {
		s.slab = make([]float64, n)
	}
	s.used, s.nBlocks, s.nFields = 0, 0, 0
	if poisonScratch.Load() {
		poison := math.Float64frombits(scratchPoisonBits)
		for i := range s.slab {
			s.slab[i] = poison
		}
	}
}

// plane returns n float64 of backing storage. The capacity is cut at the
// length, so running off the end of a plane panics instead of writing into
// the next one, and so does asking for more than Reset made room for.
func (s *Scratch) plane(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	lo, hi := s.used, s.used+n
	s.used = hi
	return s.slab[lo:hi:hi]
}

// block returns the next block header: one handed out before the last Reset
// while any is left, else a new one.
func (s *Scratch) block() *Block {
	if s == nil {
		return new(Block)
	}
	if s.nBlocks == len(s.blocks) {
		s.blocks = append(s.blocks, new(Block))
	}
	s.nBlocks++
	return s.blocks[s.nBlocks-1]
}

// field is block for edge field headers.
func (s *Scratch) field() *EdgeField {
	if s == nil {
		return new(EdgeField)
	}
	if s.nFields == len(s.fields) {
		s.fields = append(s.fields, new(EdgeField))
	}
	s.nFields++
	return s.fields[s.nFields-1]
}

// BlockFloats returns the float64 count of a block's planes.
func BlockFloats(nx, ny, ng int) int { return NVars * (nx + 2*ng) * (ny + 2*ng) }

// EdgeFieldFloats returns the float64 count of the planes of two edge
// fields, one of X faces and one of Y faces: every user builds them in such
// pairs.
func EdgeFieldFloats(nx, ny int) int { return NVars * (faceCount(nx, ny, X) + faceCount(nx, ny, Y)) }

// Block builds a block of nx-by-ny interior cells with ng ghost layers on
// s's storage. The planes receive virtual addresses on proc's heap so kernels
// can charge their access streams.
func (s *Scratch) Block(proc *platform.Proc, nx, ny, ng int) *Block {
	if nx <= 0 || ny <= 0 || ng < 0 {
		panic(fmt.Sprintf("euler: invalid block geometry %dx%d ghost %d", nx, ny, ng))
	}
	b := s.block()
	*b = Block{Nx: nx, Ny: ny, Ng: ng, Stride: nx + 2*ng, rows: ny + 2*ng}
	n := b.Stride * b.rows
	for v := 0; v < NVars; v++ {
		b.U[v] = s.plane(n)
		b.addr[v] = proc.Alloc(8 * n)
	}
	return b
}

// EdgeField builds the face storage for a block of nx-by-ny cells on s's
// storage, with virtual addresses on proc's heap like Block.
func (s *Scratch) EdgeField(proc *platform.Proc, nx, ny int, dir Dir) *EdgeField {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("euler: invalid edge field geometry %dx%d", nx, ny))
	}
	e := s.field()
	*e = EdgeField{Dir: dir, NxCells: nx, NyCells: ny, iters: e.iters}
	n := e.Len()
	for v := 0; v < NVars; v++ {
		e.Q[v] = s.plane(n)
		e.addr[v] = proc.Alloc(8 * n)
	}
	return e
}
