package mpi

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/netmodel"
)

// Op identifies a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
)

// apply combines two values under the operator.
func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	default:
		panic(fmt.Sprintf("mpi: unknown reduction op %d", int(o)))
	}
}

type collKind int

const (
	collBarrier collKind = iota
	collAllreduce
	collBcast
	collAllgather
	collDup
)

// collOps names each collective's MPI entry point (constants, so that
// describing a blocked collective builds no string).
var collOps = [...]string{
	collBarrier:   "MPI_Barrier()",
	collAllreduce: "MPI_Allreduce()",
	collBcast:     "MPI_Bcast()",
	collAllgather: "MPI_Allgather()",
	collDup:       "MPI_Comm_dup()",
}

func (k collKind) String() string {
	return strings.TrimSuffix(strings.TrimPrefix(collOps[k], "MPI_"), "()")
}

func (k collKind) netKind() netmodel.CollectiveKind {
	switch k {
	case collAllreduce:
		return netmodel.Allreduce
	case collBcast:
		return netmodel.Bcast
	case collAllgather:
		return netmodel.Allgather
	}
	return netmodel.Barrier
}

// collState is a communicator's rendezvous for its in-flight collective.
// At most one collective per communicator is in flight at a time (MPI
// requires all ranks to issue collectives in the same order).
type collState struct {
	gen     uint64
	arrived int
	kind    collKind
	op      Op
	root    int
	tmax    float64
	// contrib holds each member's contribution by rank. A conservative
	// member's is its caller's slice, read in place: the member stays
	// inside its call until the last arrival has computed the result.
	contrib [][]float64

	lastLeave  float64
	lastResult []float64 // every member's result of the completed collective
	lastID     int       // new communicator id for Dup
}

// join records the arrival of c's rank, at virtual time clock, at the
// communicator's in-flight generation, opening one when none is: the one
// rendezvous step behind the conservative path, the optimistic commit
// replay and its speculative mirror. It reports whether the membership is
// now complete. An arrival that names another collective than the one in
// flight is a program error: it still counts, and err says what differs.
func (cs *collState) join(c *Comm, kind collKind, op Op, root int, clock float64, data []float64) (full bool, err error) {
	if cs.arrived == 0 {
		cs.kind, cs.op, cs.root, cs.tmax = kind, op, root, 0
		if cs.contrib == nil {
			cs.contrib = make([][]float64, c.Size())
		}
	} else if cs.kind != kind || cs.root != root {
		err = fmt.Errorf("mpi: collective mismatch on comm %d: rank %d issued %v(root=%d) while %v(root=%d) in flight",
			c.id, c.r.rank, kind, root, cs.kind, cs.root)
	}
	cs.arrived++
	if clock > cs.tmax {
		cs.tmax = clock
	}
	cs.contrib[c.r.rank] = data
	return cs.arrived == len(cs.contrib), err
}

// collective routes the all-ranks rendezvous through the scheduler: under
// the optimistic scheduler the arrival is recorded on the rank's event
// stream and replayed by the commit automaton; under the serial and
// conservative schedulers it runs directly under the commit token.
func (c *Comm) collective(kind collKind, data []float64, root int, op Op) ([]float64, int) {
	w := c.world
	if w.opt {
		return c.optCollective(kind, data, root, op)
	}
	w.lockShared(c.r.rank)
	defer w.mu.Unlock()
	return c.collectiveLocked(kind, data, root, op)
}

// collectiveLocked runs the all-ranks rendezvous: the caller contributes
// data, blocks until every member of the communicator has arrived, and
// leaves at tmax + network cost with the collective's result. The last
// arriver computes it for everyone. Caller must hold the world lock.
func (c *Comm) collectiveLocked(kind collKind, data []float64, root int, op Op) ([]float64, int) {
	w := c.world
	cs := w.colls[c.id]
	if cs == nil {
		cs = &collState{}
		w.colls[c.id] = cs
	}
	myGen := cs.gen
	full, err := cs.join(c, kind, op, root, c.r.Proc.Now(), data)
	if err != nil {
		panic(err)
	}
	if full {
		c.completeCollectiveLocked(cs)
	} else {
		w.blockOn(c.r.rank, blockDesc{op: collOps[kind], comm: c.id, cs: cs, gen: myGen})
		if w.aborted {
			panic(abortPanic{})
		}
	}
	c.r.Proc.SyncTo(cs.lastLeave)
	return cs.lastResult, cs.lastID
}

// collResult computes the result every member of a completed collective
// receives from its contribution set, plus the byte count the network
// model charges — the pure half of completeCollectiveLocked, shared with
// the optimistic scheduler's speculative completion path. The result
// aliases no contribution, so the contributors may reuse their buffers
// once the collective returns. Barrier and Dup carry no data (Dup
// allocates a communicator id, order-sensitive shared state) and have a
// nil result.
func collResult(kind collKind, op Op, root int, contrib [][]float64) ([]float64, int) {
	switch kind {
	case collBarrier, collDup:
		return nil, 0
	case collAllreduce:
		acc := reduceContrib(contrib, op)
		return acc, bytesOf(len(acc))
	case collBcast:
		src := contrib[root]
		if src == nil {
			panic("mpi: Bcast root contributed no data")
		}
		return slices.Clone(src), bytesOf(len(src))
	case collAllgather:
		var total []float64
		for i, part := range contrib {
			if part == nil {
				panic(fmt.Sprintf("mpi: Allgather rank %d contributed no data", i))
			}
			total = append(total, part...)
		}
		return total, bytesOf(len(contrib[0]))
	}
	panic(fmt.Sprintf("mpi: unknown collective kind %d", int(kind)))
}

// completeCollectiveLocked is run by the last arriving rank: it computes
// the result, costs the collective, and releases the others.
// The contribution table is cleared, so no caller's buffer outlives the
// call that lent it.
func (c *Comm) completeCollectiveLocked(cs *collState) {
	w := c.world
	result, bytes := collResult(cs.kind, cs.op, cs.root, cs.contrib)
	clear(cs.contrib)
	if cs.kind == collDup {
		cs.lastID = w.nextCommID
		w.nextCommID++
	}
	cost := w.cfg.Net.Collective(cs.kind.netKind(), len(cs.contrib), bytes, w.rng)
	cs.lastLeave = cs.tmax + cost
	cs.lastResult = result
	cs.arrived = 0
	cs.gen++
	// Parked members are promoted at the next scheduling point (when this
	// rank blocks or finishes); shared-state commits are token-ordered in
	// both scheduler modes, so only one rank ever mutates this state at a
	// time.
}

// reduceContrib folds the contributions elementwise under op into a new
// slice. All contributions must have equal length.
func reduceContrib(contrib [][]float64, op Op) []float64 {
	var acc []float64
	for i, part := range contrib {
		if part == nil {
			panic(fmt.Sprintf("mpi: reduction rank %d contributed no data", i))
		}
		if acc == nil {
			acc = make([]float64, len(part))
			copy(acc, part)
			continue
		}
		if len(part) != len(acc) {
			panic(fmt.Sprintf("mpi: reduction length mismatch %d vs %d", len(part), len(acc)))
		}
		for j, v := range part {
			acc[j] = op.apply(acc[j], v)
		}
	}
	return acc
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	defer c.enter("MPI_Barrier()").exit()
	c.collective(collBarrier, nil, 0, OpSum)
}

// Allreduce reduces data elementwise across all ranks under op and returns
// the result (identical on every rank).
func (c *Comm) Allreduce(op Op, data []float64) []float64 {
	defer c.enter("MPI_Allreduce()").exit()
	res, _ := c.collective(collAllreduce, data, 0, op)
	out := make([]float64, len(res))
	copy(out, res)
	return out
}

// Bcast broadcasts root's buf into every rank's buf (in place).
func (c *Comm) Bcast(root int, buf []float64) {
	c.checkPeer(root)
	defer c.enter("MPI_Bcast()").exit()
	var contrib []float64
	if c.r.rank == root {
		contrib = buf
	}
	res, _ := c.collective(collBcast, contrib, root, OpSum)
	if c.r.rank != root {
		if len(res) != len(buf) {
			panic(fmt.Sprintf("mpi: Bcast buffer length %d != root payload %d", len(buf), len(res)))
		}
		copy(buf, res)
	}
}

// Allgather concatenates every rank's equal-length contribution in rank
// order and returns the concatenation on every rank.
func (c *Comm) Allgather(data []float64) []float64 {
	defer c.enter("MPI_Allgather()").exit()
	res, _ := c.collective(collAllgather, data, 0, OpSum)
	out := make([]float64, len(res))
	copy(out, res)
	return out
}

// Dup duplicates the communicator: a collective returning a new Comm over
// the same ranks but with a private message space.
func (c *Comm) Dup() *Comm {
	w := c.world
	defer c.enter("MPI_Comm_dup()").exit()
	_, id := c.collective(collDup, nil, 0, OpSum)
	return &Comm{world: w, id: id, r: c.r}
}
