package mpi

import (
	"fmt"

	"repro/internal/obs"
)

// Wildcards for Recv/Irecv matching.
const (
	// AnySource matches a message from any rank (MPI_ANY_SOURCE).
	AnySource = -1
	// AnyTag matches a message with any tag (MPI_ANY_TAG).
	AnyTag = -2
)

// Comm is a communicator: an ordered group of ranks with a private message
// space. Comm methods must be called by the owning rank's goroutine inside
// World.Run.
//
// Entry points fall in two classes. Rank-local operations (Send, Isend,
// Irecv, Cancel, Wtime, ErrhandlerSet) touch only the calling rank's clock,
// profile and request objects, so under the conservative scheduler they run
// without any synchronization — this is the run-ahead that buys wall-clock
// parallelism (sends buffer their fully computed message for the rank's
// next commit turn). Shared operations (Recv, Wait*, all collectives,
// KeyvalCreate) read or write order-sensitive world state and commit under
// the token discipline via World.lockShared.
type Comm struct {
	world *World
	id    int
	rank  int   // this rank's position within group
	group []int // world ranks of the members
	r     *Rank
}

// Rank returns the caller's rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.group) }

// checkPeer validates a peer rank within the communicator.
func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= len(c.group) {
		panic(fmt.Sprintf("mpi: rank %d out of range for communicator of size %d", peer, len(c.group)))
	}
}

// mpiCall is an open MPI entry point, returned by enter and closed by exit.
// It is a value (not a closure) so that entering costs no allocation.
type mpiCall struct {
	r    *Rank
	name string
	span obs.SpanHandle
}

// enter wraps an MPI entry point in its TAU timer (group "MPI") and charges
// the fixed software overhead; callers defer exit on the result. Profile
// and clock are rank-local, so no lock is needed.
func (c *Comm) enter(name string) mpiCall {
	r := c.r
	r.Prof.Start(name, "MPI")
	r.Proc.Advance(c.world.cfg.Net.SoftwareUS)
	e := mpiCall{r: r, name: name}
	if trk := c.world.rankTrack(r.rank); trk != nil {
		// Observed: the gap since the previous MPI return is this rank's
		// compute segment, and the entry itself becomes a span. lastOpEnd is
		// rank-local (each rank's entry points run on its own goroutine).
		now := trk.Now()
		if last := r.lastOpEnd; last != 0 && now > last {
			trk.Span("compute", "compute", last, now-last)
		}
		e.span = trk.Begin("mpi", name)
	}
	return e
}

// exit closes the entry point's timer and, when observed, its span.
func (e mpiCall) exit() {
	e.r.Prof.Stop(e.name)
	if trk := e.r.world.rankTrack(e.r.rank); trk != nil {
		e.span.End()
		e.r.lastOpEnd = trk.Now()
	}
}

// bytesOf returns the payload size of a float64 message in bytes.
func bytesOf(n int) int { return 8 * n }

// Request represents a pending nonblocking operation. Requests are owned
// by the rank that created them and must not be shared across ranks.
type Request struct {
	comm     *Comm
	isRecv   bool
	src, tag int
	buf      []float64
	done     bool
	canceled bool
	n        int
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// Canceled reports whether the request was canceled.
func (r *Request) Canceled() bool { return r.canceled }

// Count returns the number of float64 values received (0 for sends).
func (r *Request) Count() int { return r.n }

// postSend computes the virtual arrival time and delivers the message: the
// optimistic scheduler publishes it at once; the conservative scheduler
// buffers it rank-locally, to be flushed in program order at the rank's
// next commit turn. Arrival time and noise draw use only the sender's
// clock and RNG, so the message is the same whichever rank holds the token
// when it is computed.
func (c *Comm) postSend(dst, tag int, data []float64) {
	cp := make([]float64, len(data))
	copy(cp, data)
	arrive := c.r.Proc.Now() + c.world.cfg.Net.PointToPoint(bytesOf(len(data)), c.r.Proc.RNG())
	m := &message{src: c.rank, tag: tag, data: cp, arrive: arrive}
	key := mailKey{comm: c.id, dst: c.group[dst]}
	if c.world.opt {
		c.optPostSend(key, m)
	} else {
		c.r.pending = append(c.r.pending, pendingSend{key: key, msg: m})
	}
	c.r.Prof.TriggerEvent("Message size sent", float64(bytesOf(len(data))))
}

// consume completes a matched receive: the receiver's clock advances to the
// arrival time plus the local copy cost, and the payload lands in buf.
// Caller must hold the world lock.
func (c *Comm) consumeLocked(m *message, req *Request) {
	if len(m.data) > len(req.buf) {
		panic(fmt.Sprintf("mpi: message of %d values truncated into buffer of %d", len(m.data), len(req.buf)))
	}
	c.r.Proc.SyncTo(m.arrive)
	n := copy(req.buf, m.data)
	// Local copy cost out of the receive buffer.
	copyUS := float64(bytesOf(n)) / copyBytesPerUS
	c.r.Proc.Advance(copyUS)
	req.n = n
	req.done = true
	c.r.Prof.TriggerEvent("Message size received", float64(bytesOf(n)))
}

// copyBytesPerUS is the memory-copy bandwidth used for landing received
// payloads (about 1.5 GB/s, the paper-era memcpy rate).
const copyBytesPerUS = 1500.0

// Send performs a blocking standard-mode send. Small/medium messages are
// modeled as eagerly buffered: the sender pays the software overhead and a
// local copy, and the message arrives at the destination after the network
// delay. A rank-local operation: it never blocks the sender.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.checkPeer(dst)
	defer c.enter("MPI_Send()").exit()
	c.r.Proc.Advance(float64(bytesOf(len(data))) / copyBytesPerUS)
	c.postSend(dst, tag, data)
}

// Recv performs a blocking receive into buf, returning the number of
// float64 values received.
func (c *Comm) Recv(src, tag int, buf []float64) int {
	if src != AnySource {
		c.checkPeer(src)
	}
	defer c.enter("MPI_Recv()").exit()
	w := c.world
	if w.opt {
		// The request of a blocking receive lives on the rank (which is
		// inside one MPI call at a time), not in a heap object per call.
		req := &c.r.recvReq
		*req = Request{comm: c, isRecv: true, src: src, tag: tag, buf: buf}
		c.r.oneReq[0] = req
		c.optCompleteRecvs("MPI_Recv()", c.r.oneReq[:])
		return req.n
	}
	w.lockShared(c.r.rank)
	defer w.mu.Unlock()
	req := Request{comm: c, isRecv: true, src: src, tag: tag, buf: buf}
	c.waitLocked("MPI_Recv()", &req)
	return req.n
}

// Isend starts a nonblocking send. The returned request is immediately
// complete (eager buffering), matching how the paper's ghost-cell update
// posts all sends before waiting on receives.
func (c *Comm) Isend(dst, tag int, data []float64) *Request {
	c.checkPeer(dst)
	defer c.enter("MPI_Isend()").exit()
	c.postSend(dst, tag, data)
	return &Request{comm: c, done: true}
}

// Irecv posts a nonblocking receive into buf. Complete it with Wait,
// Waitall or Waitsome. Posting is rank-local; only completion touches the
// shared message space.
func (c *Comm) Irecv(src, tag int, buf []float64) *Request {
	if src != AnySource {
		c.checkPeer(src)
	}
	defer c.enter("MPI_Irecv()").exit()
	return &Request{comm: c, isRecv: true, src: src, tag: tag, buf: buf}
}

// waitLocked completes one request, blocking if necessary.
func (c *Comm) waitLocked(op string, req *Request) {
	if req.done || req.canceled {
		return
	}
	if !req.isRecv {
		req.done = true
		return
	}
	w := c.world
	w.blockOn(c.r.rank, blockDesc{op: op, comm: req.comm.id, src: req.src, tag: req.tag})
	if w.aborted {
		panic(abortPanic{})
	}
	m := w.matchLocked(mailKey{comm: req.comm.id, dst: c.r.rank}, req.src, req.tag)
	req.comm.consumeLocked(m, req)
}

// pendingRecvs counts the posted receives in reqs that are still open.
func pendingRecvs(reqs []*Request) int {
	n := 0
	for _, r := range reqs {
		if r.isRecv && !r.done && !r.canceled {
			n++
		}
	}
	return n
}

// Wait blocks until the request completes.
func (c *Comm) Wait(req *Request) {
	defer c.enter("MPI_Wait()").exit()
	if req.done || req.canceled || !req.isRecv {
		if !req.isRecv {
			req.done = true
		}
		return
	}
	w := c.world
	if w.opt {
		c.r.oneReq[0] = req
		c.optCompleteRecvs("MPI_Wait()", c.r.oneReq[:])
		return
	}
	w.lockShared(c.r.rank)
	defer w.mu.Unlock()
	c.waitLocked("MPI_Wait()", req)
}

// Waitall blocks until every request completes.
func (c *Comm) Waitall(reqs []*Request) {
	defer c.enter("MPI_Waitall()").exit()
	if pendingRecvs(reqs) == 0 {
		// Only sends (already complete at posting) and settled requests:
		// nothing touches the shared message space.
		for _, r := range reqs {
			if !r.done && !r.canceled && !r.isRecv {
				r.done = true
			}
		}
		return
	}
	w := c.world
	if w.opt {
		for _, r := range reqs {
			if !r.done && !r.canceled && !r.isRecv {
				r.done = true
			}
		}
		c.optCompleteRecvs("MPI_Waitall()", reqs)
		return
	}
	w.lockShared(c.r.rank)
	defer w.mu.Unlock()
	for _, r := range reqs {
		c.waitLocked("MPI_Waitall()", r)
	}
}

// Waitsome blocks until at least one of the pending requests completes and
// returns the indices of all requests completed by this call, in posting
// order. It returns nil when no request is pending (MPI_UNDEFINED). This is
// the call the paper's AMRMesh spends ~25% of its time in (Fig. 3): ghost
// updates and the load-balancing redistribution both post batches of
// nonblocking receives and drain them with Waitsome.
func (c *Comm) Waitsome(reqs []*Request) []int {
	defer c.enter("MPI_Waitsome()").exit()

	// Complete any finished sends without blocking — a rank-local fast
	// path: send requests are complete at posting and never consult the
	// shared message space.
	var out []int
	pendingRecv := 0
	for i, r := range reqs {
		if r.done || r.canceled {
			continue
		}
		if !r.isRecv {
			r.done = true
			out = append(out, i)
			continue
		}
		pendingRecv++
	}
	if len(out) > 0 {
		return out
	}
	if pendingRecv == 0 {
		return nil
	}

	w := c.world
	if w.opt {
		return c.optWaitsome(reqs)
	}
	w.lockShared(c.r.rank)
	defer w.mu.Unlock()
	w.blockOn(c.r.rank, blockDesc{op: "MPI_Waitsome()", comm: c.id, pending: pendingRecv, reqs: reqs})
	if w.aborted {
		panic(abortPanic{})
	}
	for i, r := range reqs {
		if !r.isRecv || r.done || r.canceled {
			continue
		}
		key := mailKey{comm: r.comm.id, dst: r.comm.group[r.comm.rank]}
		if m := w.matchLocked(key, r.src, r.tag); m != nil {
			r.comm.consumeLocked(m, r)
			out = append(out, i)
		}
	}
	return out
}

// Cancel cancels a pending receive request that has not yet been matched.
// Canceling a completed request is a no-op, as in MPI. Rank-local: the
// request belongs to the calling rank.
func (c *Comm) Cancel(req *Request) {
	defer c.enter("MPI_Cancel()").exit()
	if !req.done {
		req.canceled = true
	}
}

// Wtime returns the rank's virtual time in seconds (MPI_Wtime semantics).
func (c *Comm) Wtime() float64 {
	defer c.enter("MPI_Wtime()").exit()
	return c.r.Proc.Now() * 1e-6
}

// Init models MPI_Init: a synchronizing startup with a substantial
// one-time cost (the Fig. 3 profile shows ~0.66 s per rank).
func (c *Comm) Init() {
	defer c.enter("MPI_Init()").exit()
	c.r.Proc.Advance(c.world.cfg.InitUS)
	c.collective(collBarrier, nil, 0, OpSum)
}

// Finalize models MPI_Finalize: a synchronizing teardown.
func (c *Comm) Finalize() {
	defer c.enter("MPI_Finalize()").exit()
	c.collective(collBarrier, nil, 0, OpSum)
	c.r.Proc.Advance(c.world.cfg.FinalizeUS)
}

// KeyvalCreate models MPI_Keyval_create: it allocates a fresh attribute key
// (the paper's framework calls it during startup). Id allocation is
// order-sensitive shared state, so it commits under the token.
func (c *Comm) KeyvalCreate() int {
	defer c.enter("MPI_Keyval_create()").exit()
	w := c.world
	if w.opt {
		return c.optKeyvalCreate()
	}
	w.lockShared(c.r.rank)
	defer w.mu.Unlock()
	w.nextCommID++ // reuse the id space for keyvals; uniqueness is all MPI promises
	return w.nextCommID
}

// ErrhandlerSet models MPI_Errhandler_set: bookkeeping only.
func (c *Comm) ErrhandlerSet() {
	defer c.enter("MPI_Errhandler_set()").exit()
}
