package mpi

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sched_reference.txt from the serial scheduler")

const referenceFile = "testdata/sched_reference.txt"

// referenceScheds are the scheduler configurations held to the reference
// digests, as FormatSched tokens.
var referenceScheds = []string{"serial", "par", "par1", "par2", "par3", "opt", "opt2"}

// referenceCase is one world of the reference set: a body and the machine
// it runs on, whose seed also seeds a random pattern.
type referenceCase struct {
	body string
	cfg  WorldConfig
	run  func(r *Rank, log *[]string)
}

func (c referenceCase) key() string {
	return fmt.Sprintf("%s %d %d", c.body, c.cfg.Seed, c.cfg.Procs)
}

// referenceCases lists the reference set: the two random property patterns
// over fixed seeds at 2-5 ranks, and the four scheduler bodies at 16 ranks.
func referenceCases() []referenceCase {
	var cases []referenceCase
	for _, pat := range []struct {
		name string
		body func(seed int64, p int) func(*Rank, *[]string)
	}{{"randomPattern", randomPatternBody}, {"wildcardPattern", wildcardPatternBody}} {
		for _, seed := range []int64{1, 2, 3, 5, 8, 13} {
			for p := 2; p <= 5; p++ {
				cfg := testConfig(p)
				cfg.Net.NoiseSigma = 0.35
				cfg.Seed = seed
				cases = append(cases, referenceCase{pat.name, cfg, pat.body(seed, p)})
			}
		}
	}
	for _, body := range []struct {
		name string
		run  func(*Rank)
	}{{"compute", computeBody}, {"ghost", ghostBody}, {"wildcard", wildcardBody}, {"coll", collBody}} {
		cfg := DefaultConfig()
		cfg.Procs = 16
		run := body.run
		cases = append(cases, referenceCase{body.name, cfg, func(r *Rank, _ *[]string) { run(r) }})
	}
	return cases
}

// digest hashes everything assertTracesEqual compares: clock bits,
// counters, rendered TAU profiles and receive logs, rank by rank.
func (tr worldTrace) digest() string {
	h := sha256.New()
	for r := range tr.clocks {
		binary.Write(h, binary.LittleEndian, math.Float64bits(tr.clocks[r]))
		fmt.Fprintf(h, "%s\n%d\n", tr.counters[r], len(tr.profiles[r]))
		h.Write(tr.profiles[r])
		fmt.Fprintf(h, "%q\n", tr.log[r])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readReference parses the reference file into key -> digest.
func readReference(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(referenceFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", referenceFile, line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSchedulerReferenceDigests holds every scheduler configuration to
// checked-in digests of the reference worlds' traces. The digests were
// first written by a token-exclusive serial scheduler that ran one rank at
// a time and shared no start, send or wait path with the conservative one,
// so the file is a reference that does not depend on the scheduler code
// under test; the live serial-versus-parallel comparisons elsewhere still
// run beside it. go test -run TestSchedulerReferenceDigests -update
// rewrites the file from the Serial configuration; a scheduler change must
// leave it byte for byte as it is.
func TestSchedulerReferenceDigests(t *testing.T) {
	cases := referenceCases()
	if *update {
		var sb strings.Builder
		sb.WriteString("# body seed procs sha256(clock bits, counters, TAU timers (name, group, calls, incl and excl bits), receive logs)\n")
		for _, c := range cases {
			fmt.Fprintf(&sb, "%s %s\n", c.key(), runTraced(t, c.cfg, c.run).digest())
		}
		if err := os.WriteFile(referenceFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkReferenceDigests(t)
}

// TestPoisonedMessagesMatchReference is TestSchedulerReferenceDigests with
// every released message poisoned: a message read after its last use, by
// any scheduler, leaves signalling NaNs in some digest. The reference bodies
// at 16 ranks are among the cases, so every body's final state is checked
// under every scheduler. Not parallel: the hook is process-wide.
func TestPoisonedMessagesMatchReference(t *testing.T) {
	t.Cleanup(PoisonReleasedMessages())
	checkReferenceDigests(t)
}

// checkReferenceDigests holds every scheduler configuration of every
// reference case to its checked-in digest, one parallel subtest per case.
func checkReferenceDigests(t *testing.T) {
	cases := referenceCases()
	want := readReference(t)
	if len(want) != len(cases) {
		t.Errorf("%s has %d digests, the reference set %d cases", referenceFile, len(want), len(cases))
	}
	for _, c := range cases {
		t.Run(strings.ReplaceAll(c.key(), " ", "/"), func(t *testing.T) {
			if raceEnabled && c.body == "compute" {
				// Kernel work with no MPI between start and finish: no
				// interleaving for the detector to check, and 25x slower.
				t.Skip("compute body under the race detector")
			}
			t.Parallel()
			w, ok := want[c.key()]
			if !ok {
				t.Fatalf("no reference digest for %q", c.key())
			}
			for _, tok := range referenceScheds {
				mode, n, err := ParseSched(tok)
				if err != nil {
					t.Fatal(err)
				}
				if got := runTraced(t, c.cfg.WithScheduler(mode, n), c.run).digest(); got != w {
					t.Errorf("%s: digest %s, reference %s", tok, got, w)
				}
			}
		})
	}
}
