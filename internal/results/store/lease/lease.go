// Package lease is the coordinator-free claim protocol that lets several
// independent campaign processes — typically on different hosts sharing
// one checkpoint store directory over a network filesystem — partition one
// job grid with zero duplicated executions and no central scheduler.
//
// The protocol piggybacks on the store's atomicity discipline. Each job
// (identified by the store's (key, hash) pair) maps to one lease file
// under <store dir>/leases/, named by the same content address as the
// job's checkpoint entry. A worker claims a job by creating that file
// exclusively: the lease record (owner id, key, hash, heartbeat
// timestamp) is written to a temp file first and then link(2)ed to the
// canonical name, which fails with EEXIST when any other live worker
// holds the lease — the same create-exclusively-or-lose atomicity as
// O_CREATE|O_EXCL, but the file is never visible half-written. Renewals
// and steals go through temp + rename, the store's own write discipline.
//
// Lease lifecycle:
//
//	claim    exclusive link of a fresh record; at most one winner per slot
//	run      the winner executes the job and saves its checkpoint
//	beat     a background goroutine rewrites held leases every TTL/4
//	release  audit line appended, lease file removed; the stored payload
//	         now answers every later claim with "done"
//	steal    a lease whose heartbeat is older than TTL belongs to a dead
//	         worker: any claimant renames it aside (exactly one such
//	         rename succeeds) and races the vacant slot afresh
//
// A claim always checks the store first (and once more just after
// winning, closing the race with a holder that completed between the two
// steps), so a job is executed at most once per lease tenure and exactly
// once overall when no worker dies mid-run. Completed executions append
// the job key to a per-owner audit log (leases/audit-<owner>.log), which
// is how tests and CI prove the no-duplicates property.
//
// NFS caveats: the exclusive-link claim and rename-based steal are atomic
// on NFSv3+; heartbeat staleness compares the timestamp inside the lease
// against the local clock, so hosts must be NTP-synchronized and TTL must
// be chosen far above both the worst clock skew and the attribute-cache
// delay with which one host sees another's writes (the defaults — 30s
// TTL, 7.5s heartbeat — absorb typical setups). If a live worker stalls
// past TTL (GC pause, NFS outage), its job can be stolen and executed
// twice; both executions store byte-identical payloads, so the output is
// still correct — only the audit shows the duplicate.
package lease

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/results/store"
)

// DefaultTTL is the heartbeat age beyond which a lease counts as stale
// and may be stolen.
const DefaultTTL = 30 * time.Second

// dirName is the lease subdirectory under the store directory.
const dirName = "leases"

// claimAttempts bounds one TryClaim's create/steal retries; losing every
// race simply reports busy and the campaign re-tries after its backoff.
const claimAttempts = 4

// Options tunes a lease manager.
type Options struct {
	// TTL is the heartbeat age beyond which other workers may steal the
	// lease. Zero means DefaultTTL. Choose it far above the expected clock
	// skew and filesystem attribute-cache delay between hosts. Held leases
	// are renewed every TTL/4.
	TTL time.Duration
}

// Manager claims, renews and releases job leases for one worker process.
// It implements campaign.Claimer; give it to campaign.Config.Claimer
// alongside the same store. Safe for concurrent use by campaign workers.
type Manager struct {
	st    *store.Store
	dir   string
	owner string
	opts  Options

	seq  atomic.Uint64 // uniquifies reap file names
	stop chan struct{}
	done chan struct{}

	trk *obs.Track // this owner's trace lane; nil when unobserved
	met leaseMetrics

	mu        sync.Mutex
	held      map[string]heldLease   // addr -> claim, for heartbeat renewal
	addrLocks map[string]*sync.Mutex // addr -> lease-file I/O serialization
	executed  []string               // job keys completed under our leases
	lost      int                    // leases observed stolen or vanished
	closed    bool
}

// leaseMetrics caches the registry instruments for the claim protocol.
// All-nil (observability disabled at Open) makes every update a no-op.
type leaseMetrics struct {
	claims, busy, run, done *obs.Counter
	steals, beats, lost     *obs.Counter
	releases                *obs.Counter
	holdUS                  *obs.Histogram
}

// heldLease is one claim awaiting release.
type heldLease struct {
	key, hash string
	since     time.Time // claim grant time, for audit elapsed
	traceNS   int64     // tracer clock at grant; meaningful only when trk != nil
}

// record is a parsed lease file.
type record struct {
	Owner     string
	Key, Hash string
	Beat      time.Time
}

// Open attaches a lease manager for the given worker identity to a
// store's lease directory (created if needed) and starts the heartbeat
// goroutine. Call Close when the campaign ends; a process that dies
// without Close simply stops heartbeating and its leases go stale.
func Open(st *store.Store, owner string, opts Options) (*Manager, error) {
	if st == nil {
		return nil, fmt.Errorf("lease: nil store")
	}
	if err := validOwner(owner); err != nil {
		return nil, err
	}
	if opts.TTL < 0 {
		return nil, fmt.Errorf("lease: negative TTL")
	}
	if opts.TTL == 0 {
		opts.TTL = DefaultTTL
	}
	// A TTL under 4ns leaves no heartbeat interval: every live lease would
	// go stale unrenewed and get stolen, quietly breaking exactly-once.
	if opts.TTL/4 <= 0 {
		return nil, fmt.Errorf("lease: TTL (%v) too small to heartbeat under", opts.TTL)
	}
	dir := filepath.Join(st.Dir(), dirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	m := &Manager{
		st: st, dir: dir, owner: owner, opts: opts,
		stop: make(chan struct{}), done: make(chan struct{}),
		held: make(map[string]heldLease), addrLocks: make(map[string]*sync.Mutex),
	}
	if o := obs.Active(); o != nil {
		m.trk = o.Tracer().Track("lease", owner)
		reg := o.Metrics()
		m.met = leaseMetrics{
			claims:   reg.Counter("lease_claims_total"),
			busy:     reg.Counter("lease_claim_busy_total"),
			run:      reg.Counter("lease_claim_run_total"),
			done:     reg.Counter("lease_claim_done_total"),
			steals:   reg.Counter("lease_steals_total"),
			beats:    reg.Counter("lease_heartbeats_total"),
			lost:     reg.Counter("lease_lost_total"),
			releases: reg.Counter("lease_releases_total"),
			holdUS:   reg.Histogram("lease_hold_us", obs.LatencyBucketsUS),
		}
	}
	go m.heartbeat()
	return m, nil
}

// validOwner rejects identities that would not survive as a file-name
// component of lease and audit files.
func validOwner(owner string) error {
	if owner == "" {
		return fmt.Errorf("lease: empty owner id")
	}
	if strings.ContainsAny(owner, "/\\\x00\n\t") || strings.HasPrefix(owner, ".") {
		return fmt.Errorf("lease: owner id %q must be a plain file-name component", owner)
	}
	return nil
}

// Owner returns the manager's worker identity.
func (m *Manager) Owner() string { return m.owner }

// Executed returns the job keys completed under this manager's leases, in
// completion order — this process's share of the campaign partition.
func (m *Manager) Executed() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.executed...)
}

// Lost counts held leases observed stolen or vanished at renewal time —
// nonzero only when this process stalled past TTL and another worker
// reclaimed its jobs.
func (m *Manager) Lost() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lost
}

// Close stops the heartbeat goroutine. Held leases are left on disk: a
// clean shutdown releases them through the campaign first, and an unclean
// one wants them to go stale so other workers steal the jobs.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
	return nil
}

// leasePath maps a content address to its lease file.
func (m *Manager) leasePath(addr string) string {
	return filepath.Join(m.dir, addr+".lease")
}

// TryClaim arbitrates one job. It reports ClaimDone when the store
// already holds the job's payload, ClaimRun when this worker won the
// lease (run the job, then Release), and ClaimBusy when another live
// worker holds it. Stale leases — heartbeat older than TTL — are stolen
// en passant: renamed aside (one winner) and the vacant slot re-raced. A
// key holding a newline or a tab is an error.
func (m *Manager) TryClaim(key, hash string) (campaign.ClaimState, error) {
	state, err := m.tryClaim(key, hash)
	m.met.claims.Inc()
	switch state {
	case campaign.ClaimBusy:
		m.met.busy.Inc()
		m.trk.Instant("claim", key, obs.Arg{Name: "state", Value: "busy"})
	case campaign.ClaimDone:
		m.met.done.Inc()
		m.trk.Instant("claim", key, obs.Arg{Name: "state", Value: "done"})
	case campaign.ClaimRun:
		m.met.run.Inc() // the hold span on this owner's track covers run→release
	}
	return state, err
}

// tryClaim is TryClaim's protocol body, free of observability concerns.
//
//repolint:allow wallclock -- lease staleness and grant times are wall-clock by protocol design (heartbeat age vs TTL); they arbitrate who runs, never what the run produces
func (m *Manager) tryClaim(key, hash string) (campaign.ClaimState, error) {
	// Both files are line- and tab-delimited: a newline in the key would
	// make the live lease read as wreckage that the next claimant steals,
	// and a tab would tear the audit line.
	if strings.ContainsAny(key, "\n\t") {
		return campaign.ClaimBusy, fmt.Errorf("lease: job key %q holds a newline or tab, which lease and audit records cannot carry", key)
	}
	addr := m.st.Addr(key, hash)
	path := m.leasePath(addr)
	for attempt := 0; attempt < claimAttempts; attempt++ {
		if ok, err := m.st.Has(key, hash); err != nil {
			return campaign.ClaimBusy, err
		} else if ok {
			return campaign.ClaimDone, nil
		}
		// Probe the slot by reading first: the common held-elsewhere case
		// costs one read, and the temp-file/link cycle is paid only for
		// slots that look vacant or stealable. The exclusive link below is
		// still the only thing that grants ownership.
		rec, rerr := readLease(path)
		switch {
		case rerr == nil && time.Since(rec.Beat) <= m.opts.TTL:
			return campaign.ClaimBusy, nil // live holder
		case rerr == nil, errors.Is(rerr, errMalformed):
			// Stale, or wreckage no complete write discipline produces:
			// steal. Renaming aside succeeds for exactly one claimant; the
			// rename grants nothing by itself, the winner just races the
			// vacant slot's exclusive create like everyone else. A rename
			// losing to another reaper (ErrNotExist) joins that race too.
			reap := filepath.Join(m.dir, fmt.Sprintf(".reap-%s-%d", m.owner, m.seq.Add(1)))
			switch err := os.Rename(path, reap); {
			case err == nil:
				m.met.steals.Inc()
				m.trk.Instant("steal", key, obs.Arg{Name: "from", Value: rec.Owner})
			case !errors.Is(err, fs.ErrNotExist):
				return campaign.ClaimBusy, fmt.Errorf("lease: steal %q: %w", key, err)
			}
			os.Remove(reap)
		case errors.Is(rerr, fs.ErrNotExist):
			// Vacant: fall through to the create race.
		default:
			// A transient read error (ESTALE/EIO on NFS, typically racing a
			// holder's heartbeat rename) proves nothing about the holder:
			// never steal on it, just report busy and let the campaign's
			// backoff re-probe.
			return campaign.ClaimBusy, nil
		}
		created, err := m.tryCreate(path, key, hash)
		if err != nil {
			return campaign.ClaimBusy, err
		}
		if !created {
			continue // lost the create race; re-probe the new lease
		}
		// Close the completion race: the previous holder may have saved
		// the payload and released between our store probe and the link.
		ok, err := m.st.Has(key, hash)
		if err != nil || ok {
			os.Remove(path)
			if err != nil {
				return campaign.ClaimBusy, err
			}
			return campaign.ClaimDone, nil
		}
		m.mu.Lock()
		m.held[addr] = heldLease{key: key, hash: hash, since: time.Now(), traceNS: m.trk.Now()}
		m.mu.Unlock()
		return campaign.ClaimRun, nil
	}
	return campaign.ClaimBusy, nil
}

// tryCreate attempts the exclusive claim: the record is written to a temp
// file and link(2)ed to the canonical lease name, so the lease appears
// atomically and fully written, or not at all. created=false means a
// lease already exists.
//
//repolint:allow wallclock -- the lease record carries a wall-clock heartbeat timestamp by protocol design
func (m *Manager) tryCreate(path, key, hash string) (created bool, err error) {
	tmp, err := os.CreateTemp(m.dir, ".claim-*")
	if err != nil {
		return false, fmt.Errorf("lease: claim %q: %w", key, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	_, werr := tmp.WriteString(formatLease(record{Owner: m.owner, Key: key, Hash: hash, Beat: time.Now()}))
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return false, fmt.Errorf("lease: claim %q: %w", key, werr)
	}
	switch err := os.Link(tmpName, path); {
	case err == nil:
		return true, nil
	case errors.Is(err, fs.ErrExist):
		return false, nil
	default:
		return false, fmt.Errorf("lease: claim %q: %w", key, err)
	}
}

// Release gives a claim back. completed=true records the execution in the
// owner's audit log first — the audit never misses a finished run — and
// then removes the lease file, at which point the stored payload answers
// every later TryClaim with done. completed=false just removes the lease
// so another worker can retry the failed job. A lease that was stolen in
// the meantime (this process stalled past TTL) is left alone and counted
// in Lost.
//
//repolint:allow wallclock -- audit hold times and end timestamps are wall-clock measurement by design; they feed the throughput report, never rendered results
func (m *Manager) Release(key, hash string, completed bool) error {
	addr := m.st.Addr(key, hash)
	// Per-address lock, not the manager lock: lease-file I/O can be slow
	// (NFS round trips) and must never delay heartbeat renewal of the
	// other held leases — a starved heartbeat would let live leases go
	// stale and be stolen. The address lock still serializes against
	// renewal of this lease, so a released lease is never resurrected by
	// a racing heartbeat rewrite.
	al := m.addrLock(addr)
	al.Lock()
	defer al.Unlock()
	m.mu.Lock()
	h, washeld := m.held[addr]
	delete(m.held, addr)
	m.mu.Unlock()
	m.met.releases.Inc()
	var elapsed time.Duration
	if washeld {
		elapsed = time.Since(h.since)
		m.met.holdUS.Observe(float64(elapsed) / 1e3)
		if m.trk != nil {
			m.trk.Span("hold", key, h.traceNS, m.trk.Now()-h.traceNS,
				obs.Arg{Name: "completed", Value: completed})
		}
	}
	if completed {
		if err := m.appendAudit(key, elapsed, time.Now()); err != nil {
			return err
		}
		m.mu.Lock()
		m.executed = append(m.executed, key)
		m.mu.Unlock()
	}
	path := m.leasePath(addr)
	rec, err := readLease(path)
	if errors.Is(err, fs.ErrNotExist) {
		m.countLost(washeld)
		return nil
	}
	if err != nil {
		return fmt.Errorf("lease: release %q: %w", key, err)
	}
	if rec.Owner != m.owner {
		m.countLost(washeld) // stolen while we ran; the thief owns the slot
		return nil
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("lease: release %q: %w", key, err)
	}
	return nil
}

// addrLock returns the mutex serializing file I/O on one lease slot. One
// mutex per claimed job lives for the manager's lifetime — trivial memory
// next to the job's checkpoint payload.
func (m *Manager) addrLock(addr string) *sync.Mutex {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.addrLocks[addr]
	if !ok {
		l = &sync.Mutex{}
		m.addrLocks[addr] = l
	}
	return l
}

// countLost bumps the lost counter when the caller actually held the
// claim it just found gone.
func (m *Manager) countLost(washeld bool) {
	if !washeld {
		return
	}
	m.met.lost.Inc()
	m.mu.Lock()
	m.lost++
	m.mu.Unlock()
}

// heartbeat renews every held lease each TTL/4 until Close.
func (m *Manager) heartbeat() {
	defer close(m.done)
	t := time.NewTicker(m.opts.TTL / 4)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.renew()
		}
	}
}

// renew rewrites each held lease with a fresh heartbeat timestamp via
// temp + rename. The held set is snapshotted under the manager lock but
// the file I/O runs outside it, under the per-address lock shared with
// Release: renewal never delays claims or state reads, and a racing
// Release cannot be interleaved into a read-rewrite (which would
// resurrect a released lease) — membership is re-checked under the
// address lock before rewriting. A lease whose file no longer carries our
// owner id was stolen (we stalled past TTL): it is dropped from the held
// set and counted, never overwritten — the thief is running the job now.
func (m *Manager) renew() {
	m.mu.Lock()
	held := make([]string, 0, len(m.held))
	for addr := range m.held {
		held = append(held, addr)
	}
	m.mu.Unlock()
	for _, addr := range held {
		m.renewOne(addr)
	}
}

// renewOne refreshes a single held lease under its address lock, so a
// racing Release cannot resurrect a released lease; the manager lock is
// never held across the rewrite.
//
//repolint:allow wallclock -- heartbeat renewal stamps the lease with the current wall clock; that is the protocol's liveness signal
func (m *Manager) renewOne(addr string) {
	al := m.addrLock(addr)
	al.Lock()
	defer al.Unlock()
	m.mu.Lock()
	_, stillHeld := m.held[addr]
	m.mu.Unlock()
	if !stillHeld {
		return // released since the snapshot
	}
	path := m.leasePath(addr)
	rec, err := readLease(path)
	switch {
	case err == nil && rec.Owner == m.owner:
		// Still ours: refresh below.
	case err == nil, errors.Is(err, fs.ErrNotExist), errors.Is(err, errMalformed):
		// Proof of theft: another owner's record, a reaped (vanished)
		// slot, or wreckage where our complete write should be. Drop the
		// lease — the thief is running the job now — and count it.
		m.mu.Lock()
		if _, ok := m.held[addr]; ok {
			delete(m.held, addr)
			m.lost++
			m.met.lost.Inc()
		}
		m.mu.Unlock()
		return
	default:
		// Transient read error (ESTALE/EIO): proves nothing — keep the
		// lease held and let the next tick retry the renewal.
		return
	}
	rec.Beat = time.Now()
	tmp, err := os.CreateTemp(m.dir, ".beat-*")
	if err != nil {
		return // disk hiccup: the next tick retries
	}
	tmpName := tmp.Name()
	_, werr := tmp.WriteString(formatLease(rec))
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil || os.Rename(tmpName, path) != nil {
		os.Remove(tmpName)
		return
	}
	m.met.beats.Inc()
}

// appendAudit records one completed execution in this owner's audit log
// as "key<TAB>elapsed_us<TAB>end_unix_ns", the line ReadAuditEntries
// parses; the timings feed the per-owner throughput report. O_APPEND
// writes of one short line are atomic, so concurrent releases need no
// extra lock here.
func (m *Manager) appendAudit(key string, elapsed time.Duration, end time.Time) error {
	f, err := os.OpenFile(filepath.Join(m.dir, "audit-"+m.owner+".log"),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("lease: audit: %w", err)
	}
	_, werr := f.WriteString(auditLine(key, elapsed, end))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("lease: audit: %w", werr)
	}
	return nil
}

// auditLine renders one audit log line; parseAuditLine is its inverse.
func auditLine(key string, elapsed time.Duration, end time.Time) string {
	return fmt.Sprintf("%s\t%.3f\t%d\n", key, float64(elapsed)/1e3, end.UnixNano())
}

// formatLease renders a lease record; one "name\tvalue" line per field.
func formatLease(r record) string {
	return fmt.Sprintf("owner\t%s\nkey\t%s\nhash\t%s\nbeat\t%d\n",
		r.Owner, r.Key, r.Hash, r.Beat.UnixNano())
}

// errMalformed marks a lease file that read fine but does not parse —
// wreckage the complete-write discipline never produces, safe to treat
// as stale. Transient I/O errors deliberately do NOT carry this mark:
// callers must never steal or abandon a lease on evidence that weak.
var errMalformed = errors.New("lease: malformed lease file")

// readLease reads and parses a lease file. fs.ErrNotExist passes through
// so callers can distinguish a vacant slot, and parse failures wrap
// errMalformed so wreckage is distinguishable from a transient read error.
func readLease(path string) (record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	r, err := parseLease(data)
	if err != nil {
		return record{}, fmt.Errorf("%w in %s", err, filepath.Base(path))
	}
	return r, nil
}

// parseLease is formatLease's inverse. Every error it returns wraps
// errMalformed.
func parseLease(data []byte) (record, error) {
	var r record
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		name, value, ok := strings.Cut(line, "\t")
		if !ok {
			return record{}, fmt.Errorf("%w: line %q", errMalformed, line)
		}
		switch name {
		case "owner":
			r.Owner = value
		case "key":
			r.Key = value
		case "hash":
			r.Hash = value
		case "beat":
			ns, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return record{}, fmt.Errorf("%w: bad beat: %v", errMalformed, err)
			}
			r.Beat = time.Unix(0, ns)
		}
	}
	if r.Owner == "" {
		return record{}, fmt.Errorf("%w: no owner", errMalformed)
	}
	return r, nil
}

// ReadAuditEntries collects every owner's audit log under the store's
// lease directory, owners in sorted order and lines in file order within
// each owner. appendAudit writes each line whole, in one O_APPEND write, as
// exactly "key<TAB>elapsed_us<TAB>end_unix_ns<NL>"; any other line is an
// error naming the file and line, never an execution with zero timings.
func ReadAuditEntries(st *store.Store) ([]obs.OwnerExec, error) {
	dir := filepath.Join(st.Dir(), dirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("lease: audit: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "audit-") && strings.HasSuffix(n, ".log") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []obs.OwnerExec
	for _, n := range names {
		owner := strings.TrimSuffix(strings.TrimPrefix(n, "audit-"), ".log")
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, fmt.Errorf("lease: audit: %w", err)
		}
		for i, line := range strings.SplitAfter(string(data), "\n") {
			if line == "" {
				continue // after the final newline
			}
			e, err := parseAuditLine(line)
			if err != nil {
				return nil, fmt.Errorf("lease: audit %s line %d: %w", n, i+1, err)
			}
			e.Owner = owner
			out = append(out, e)
		}
	}
	return out, nil
}

// parseAuditLine parses one newline-terminated audit line.
func parseAuditLine(line string) (e obs.OwnerExec, err error) {
	f := strings.Split(strings.TrimSuffix(line, "\n"), "\t")
	if len(f) != 3 || !strings.HasSuffix(line, "\n") {
		return e, fmt.Errorf("want key<TAB>elapsed_us<TAB>end_unix_ns<NL>, got %q", line)
	}
	e.Key = f[0]
	if e.ElapsedUS, err = strconv.ParseFloat(f[1], 64); err == nil {
		e.EndUnixNS, err = strconv.ParseInt(f[2], 10, 64)
	}
	return e, err
}

// ReadAudit collects every owner's audit log under the store's lease
// directory into a map from job key to the owners that completed it, each
// owner appearing once per completed execution. A campaign with no
// duplicated executions has exactly one owner entry per key; tests and
// the CI distributed job assert exactly that.
func ReadAudit(st *store.Store) (map[string][]string, error) {
	entries, err := ReadAuditEntries(st)
	if err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for _, e := range entries {
		out[e.Key] = append(out[e.Key], e.Owner)
	}
	return out, nil
}
