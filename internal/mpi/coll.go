package mpi

import (
	"fmt"
	"strings"

	"repro/internal/netmodel"
)

// Op identifies a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
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
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	default:
		panic(fmt.Sprintf("mpi: unknown reduction op %d", int(o)))
	}
}

type collKind int

const (
	collBarrier collKind = iota
	collReduce
	collAllreduce
	collBcast
	collAllgather
	collDup
	collCreate
)

// collOps names each collective's MPI entry point (constants, so that
// describing a blocked collective builds no string).
var collOps = [...]string{
	collBarrier:   "MPI_Barrier()",
	collReduce:    "MPI_Reduce()",
	collAllreduce: "MPI_Allreduce()",
	collBcast:     "MPI_Bcast()",
	collAllgather: "MPI_Allgather()",
	collDup:       "MPI_Comm_dup()",
	collCreate:    "MPI_Comm_create()",
}

func (k collKind) String() string {
	return strings.TrimSuffix(strings.TrimPrefix(collOps[k], "MPI_"), "()")
}

func (k collKind) netKind() netmodel.CollectiveKind {
	switch k {
	case collBarrier, collDup, collCreate:
		return netmodel.Barrier
	case collReduce:
		return netmodel.Reduce
	case collAllreduce:
		return netmodel.Allreduce
	case collBcast:
		return netmodel.Bcast
	case collAllgather:
		return netmodel.Allgather
	}
	return netmodel.Barrier
}

// collState is the per-communicator rendezvous for in-flight collectives.
// At most one collective per communicator is in flight at a time (MPI
// requires all ranks to issue collectives in the same order).
type collState struct {
	gen     uint64
	arrived int
	kind    collKind
	op      Op
	root    int
	tmax    float64
	contrib [][]float64

	lastLeave  float64
	lastResult [][]float64 // per-rank results of the completed collective
	lastID     int         // new communicator id for Dup/Create
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
// leaves at tmax + network cost with its per-rank result. The last arriver
// computes results for everyone. Caller must hold the world lock.
func (c *Comm) collectiveLocked(kind collKind, data []float64, root int, op Op) ([]float64, int) {
	w := c.world
	cs := w.colls[c.id]
	if cs == nil {
		cs = &collState{}
		w.colls[c.id] = cs
	}
	if cs.arrived == 0 {
		cs.kind = kind
		cs.op = op
		cs.root = root
		cs.tmax = 0
		cs.contrib = make([][]float64, len(c.group))
	} else if cs.kind != kind || cs.root != root {
		panic(fmt.Sprintf("mpi: collective mismatch on comm %d: rank %d issued %v(root=%d) while %v(root=%d) in flight",
			c.id, c.rank, kind, root, cs.kind, cs.root))
	}
	myGen := cs.gen
	cs.arrived++
	if t := c.r.Proc.Now(); t > cs.tmax {
		cs.tmax = t
	}
	if data != nil {
		cp := make([]float64, len(data))
		copy(cp, data)
		cs.contrib[c.rank] = cp
	}
	if cs.arrived == len(c.group) {
		c.completeCollectiveLocked(cs)
	} else {
		w.blockOn(c.r.rank, blockDesc{op: collOps[kind], comm: c.id, cs: cs, gen: myGen})
		if w.aborted {
			panic(abortPanic{})
		}
	}
	c.r.Proc.SyncTo(cs.lastLeave)
	var res []float64
	if cs.lastResult != nil {
		res = cs.lastResult[c.rank]
	}
	return res, cs.lastID
}

// collResults computes the per-rank results of a completed data collective
// from its contribution set, plus the byte count the network model charges
// — the pure half of completeCollectiveLocked, shared with the optimistic
// scheduler's speculative completion path. Dup and Create are not data
// collectives: they allocate a communicator id (order-sensitive shared
// state) and return empty results here.
func collResults(kind collKind, op Op, root, groupLen int, contrib [][]float64) ([][]float64, int) {
	var bytes int
	results := make([][]float64, groupLen)
	switch kind {
	case collBarrier, collDup, collCreate:
		// no data
	case collAllreduce, collReduce:
		acc := reduceContrib(contrib, op)
		bytes = bytesOf(len(acc))
		for i := range results {
			if kind == collAllreduce || i == root {
				results[i] = acc
			}
		}
	case collBcast:
		src := contrib[root]
		if src == nil {
			panic("mpi: Bcast root contributed no data")
		}
		bytes = bytesOf(len(src))
		for i := range results {
			results[i] = src
		}
	case collAllgather:
		var total []float64
		for i, part := range contrib {
			if part == nil {
				panic(fmt.Sprintf("mpi: Allgather rank %d contributed no data", i))
			}
			total = append(total, part...)
		}
		bytes = bytesOf(len(contrib[0]))
		for i := range results {
			results[i] = total
		}
	default:
		panic(fmt.Sprintf("mpi: unknown collective kind %d", int(kind)))
	}
	return results, bytes
}

// completeCollectiveLocked is run by the last arriving rank: it computes
// every member's result, costs the collective, and releases the others.
func (c *Comm) completeCollectiveLocked(cs *collState) {
	w := c.world
	p := len(c.group)
	results, bytes := collResults(cs.kind, cs.op, cs.root, p, cs.contrib)
	if cs.kind == collDup || cs.kind == collCreate {
		cs.lastID = w.nextCommID
		w.nextCommID++
	}
	cost := w.cfg.Net.Collective(cs.kind.netKind(), p, bytes, w.rng)
	cs.lastLeave = cs.tmax + cost
	cs.lastResult = results
	cs.arrived = 0
	cs.gen++
	// Parked members are promoted at the next scheduling point (when this
	// rank blocks or finishes); shared-state commits are token-ordered in
	// both scheduler modes, so only one rank ever mutates this state at a
	// time.
}

// reduceContrib folds the contributions elementwise under op. All
// contributions must have equal length.
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

// Reduce reduces data elementwise to root. It returns the result on root
// and nil elsewhere.
func (c *Comm) Reduce(op Op, root int, data []float64) []float64 {
	c.checkPeer(root)
	defer c.enter("MPI_Reduce()").exit()
	res, _ := c.collective(collReduce, data, root, op)
	if res == nil {
		return nil
	}
	out := make([]float64, len(res))
	copy(out, res)
	return out
}

// Bcast broadcasts root's buf into every rank's buf (in place).
func (c *Comm) Bcast(root int, buf []float64) {
	c.checkPeer(root)
	defer c.enter("MPI_Bcast()").exit()
	var contrib []float64
	if c.rank == root {
		contrib = buf
	}
	res, _ := c.collective(collBcast, contrib, root, OpSum)
	if c.rank != root {
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

// Dup duplicates the communicator: a collective returning a new Comm with
// the same group but a private message space.
func (c *Comm) Dup() *Comm {
	w := c.world
	defer c.enter("MPI_Comm_dup()").exit()
	_, id := c.collective(collDup, nil, 0, OpSum)
	return &Comm{world: w, id: id, rank: c.rank, group: c.group, r: c.r}
}

// CommCreate creates a sub-communicator over the given member ranks (ranks
// of c, sorted ascending). Every rank of c must call it with the same
// group; members receive the new Comm, non-members nil.
func (c *Comm) CommCreate(group []int) *Comm {
	for i, g := range group {
		c.checkPeer(g)
		if i > 0 && group[i-1] >= g {
			panic("mpi: CommCreate group must be sorted and duplicate-free")
		}
	}
	w := c.world
	defer c.enter("MPI_Comm_create()").exit()
	_, id := c.collective(collCreate, nil, 0, OpSum)
	myNew := -1
	worldGroup := make([]int, len(group))
	for i, g := range group {
		worldGroup[i] = c.group[g]
		if g == c.rank {
			myNew = i
		}
	}
	if myNew < 0 {
		return nil
	}
	return &Comm{world: w, id: id, rank: myNew, group: worldGroup, r: c.r}
}
