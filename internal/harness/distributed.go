package harness

import (
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
)

// This file wires the harness's campaigns for coordinator-free
// distributed execution: N independent processes pointed at one shared
// checkpoint store directory partition a job grid through the lease claim
// protocol, each producing the full output set (replayed from the store
// for jobs another process ran) byte-identical to a single-process run.

// DistributedConfig equips a campaign config for multi-process execution
// against the shared store directory: it opens the store, attaches a
// lease manager under the given worker identity, and returns the config
// with Store and Claimer set plus the manager. Close the manager after
// the campaign returns; its Executed list is this process's share of the
// partition. An empty owner derives a host-pid identity — stable for the
// process's lifetime, distinct across a fleet.
func DistributedConfig(cc campaign.Config, dir, owner string, opts lease.Options) (campaign.Config, *lease.Manager, error) {
	if owner == "" {
		owner = defaultOwner()
	}
	st, err := store.Open(dir)
	if err != nil {
		return cc, nil, err
	}
	mgr, err := lease.Open(st, owner, opts)
	if err != nil {
		return cc, nil, err
	}
	cc.Store = st
	cc.Claimer = mgr
	return cc, mgr, nil
}

// defaultOwner derives a worker identity from the host name and process
// id — unique across a fleet of simultaneously live workers, which is all
// the lease protocol needs.
//
//repolint:allow wallclock -- the owner id is process identity by design; it names lease and audit files, never simulated state
func defaultOwner() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}
