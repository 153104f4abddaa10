package invalidate

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
)

// since collects one Since report.
func since(inv *Invalidator, v uint64) (map[string]uint64, uint64, bool) {
	got := map[string]uint64{}
	now, ok := inv.Since(v, func(ks Keyspace, epoch uint64) {
		if _, dup := got[string(ks)]; dup {
			panic(fmt.Sprintf("Since reported %q twice", ks))
		}
		got[string(ks)] = epoch
	})
	return got, now, ok
}

// TestSinceReportsExactlyTheChangedKeyspaces pins the delta contract:
// every keyspace changed after v, once, at its current epoch, and
// nothing changed at or before v.
func TestSinceReportsExactlyTheChangedKeyspaces(t *testing.T) {
	inv := New(NewGraph(), nil)
	a, b, c := ksItems, ksItemX, ksItemNever
	inv.Bump(a)        // version 1
	inv.ApplyRemote(b) // 2
	inv.Bump(a)        // 3
	inv.ApplyRemote(c) // 4

	cases := []struct {
		v    uint64
		want map[string]uint64
	}{
		{0, map[string]uint64{"items": 2, "item:x": 1, "item:never": 1}},
		{1, map[string]uint64{"items": 2, "item:x": 1, "item:never": 1}},
		{2, map[string]uint64{"items": 2, "item:never": 1}},
		{3, map[string]uint64{"item:never": 1}},
		{4, map[string]uint64{}},
	}
	for _, tc := range cases {
		got, now, ok := since(inv, tc.v)
		if !ok || now != 4 || !maps.Equal(got, tc.want) {
			t.Errorf("Since(%d) = %v, now %d, ok %v; want %v, now 4, ok", tc.v, got, now, ok, tc.want)
		}
	}
	if got, now, ok := since(inv, 5); ok || len(got) != 0 || now != 4 {
		t.Errorf("Since ahead of the version = %v, now %d, ok %v; want nothing, now 4, !ok", got, now, ok)
	}
}

// TestSinceFallsBackBelowTheFloor: once the journal wraps, a version
// older than its last journalCap changes is refused and the one at the
// floor is not; InvalidateAll refuses every earlier version.
func TestSinceFallsBackBelowTheFloor(t *testing.T) {
	inv := New(NewGraph(), nil)
	if got, now, ok := since(inv, 0); !ok || now != 0 || len(got) != 0 {
		t.Fatalf("fresh Since(0) = %v, now %d, ok %v", got, now, ok)
	}
	const extra = 10
	for i := 0; i < journalCap+extra; i++ {
		inv.ApplyRemote(Keyspace(fmt.Sprintf("%s%d", itemPrefix, i%7)))
	}
	if _, _, ok := since(inv, extra-1); ok {
		t.Fatalf("Since(%d) ok with the journal holding (%d, %d]", extra-1, extra, journalCap+extra)
	}
	got, now, ok := since(inv, extra)
	if !ok || now != journalCap+extra || !maps.Equal(got, inv.snapshot()) {
		t.Fatalf("Since(floor) = %d keyspaces, now %d, ok %v; want all 7 at their current epochs", len(got), now, ok)
	}

	inv.InvalidateAll()
	after := inv.Version()
	if after != now+7 {
		t.Fatalf("InvalidateAll moved the version %d → %d, want +7", now, after)
	}
	if _, _, ok := since(inv, now); ok {
		t.Fatal("Since from before InvalidateAll ok: its advances are not journaled")
	}
	if got, _, ok := since(inv, after); !ok || len(got) != 0 {
		t.Fatalf("Since(version after InvalidateAll) = %v, ok %v; want nothing, ok", got, ok)
	}
	inv.Bump(ksItems)
	if got, _, ok := since(inv, after); !ok || !maps.Equal(got, map[string]uint64{"items": 1}) {
		t.Fatalf("Since after a post-InvalidateAll bump = %v, ok %v", got, ok)
	}
}

// follower mirrors an Invalidator's table the way a cluster client
// mirrors a daemon's: Since from its version, and Snapshot (under a
// version read first) when Since refuses.
type follower struct {
	mirror  map[string]uint64
	version uint64
	deltas  int
	fulls   int
}

func (f *follower) poll(t *testing.T, inv *Invalidator) {
	t.Helper()
	now, ok := inv.Since(f.version, func(ks Keyspace, epoch uint64) {
		f.mirror[string(ks)] = epoch
	})
	if !ok {
		f.fulls++
		now = inv.Version()
		f.mirror = inv.snapshot()
	} else {
		f.deltas++
	}
	if now < f.version {
		t.Fatalf("follower version went backwards: %d → %d", f.version, now)
	}
	f.version = now
	// Every mutation advances one cell by one and the version by one, so
	// the epochs of a table complete up to version now sum to at least
	// now. A report that claims now but misses a change falls short.
	var sum uint64
	for _, e := range f.mirror {
		sum += e
	}
	if sum < now {
		t.Fatalf("mirror claims version %d but its epochs sum to %d: a change is missing", now, sum)
	}
}

// mutate applies one seeded epoch mutation: mostly single bumps of one
// of nks keyspaces through each entry point, sometimes InvalidateAll.
func mutate(rng *rand.Rand, inv *Invalidator, nks int) {
	ks := Keyspace(fmt.Sprintf("%s%d", itemPrefix, rng.Intn(nks)))
	switch r := rng.Intn(1000); {
	case r < 2:
		inv.InvalidateAll()
	case r < 400:
		inv.ApplyRemote(ks)
	case r < 700:
		inv.Bump(ks)
	default:
		inv.CommitWrite(opPutItem, params(fmt.Sprint(rng.Intn(nks))))
	}
}

// TestSinceFollowerModel drives a seeded single-threaded interleaving
// of mutations and follower polls, with gaps both inside the journal
// and past its wrap, and InvalidateAll among the mutations. After every
// poll the mirror must equal Snapshot exactly.
func TestSinceFollowerModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inv := New(itemGraph(), nil)
		f := &follower{mirror: map[string]uint64{}}
		for round := 0; round < 400; round++ {
			gap := rng.Intn(40)
			if rng.Intn(20) == 0 {
				gap = journalCap + rng.Intn(journalCap)
			}
			for i := 0; i < gap; i++ {
				mutate(rng, inv, 64)
			}
			f.poll(t, inv)
			if !maps.Equal(f.mirror, inv.snapshot()) {
				t.Fatalf("seed %d round %d: mirror diverged from Snapshot at version %d", seed, round, f.version)
			}
		}
		if f.deltas == 0 || f.fulls == 0 {
			t.Fatalf("seed %d: %d deltas, %d full fallbacks; want both paths taken", seed, f.deltas, f.fulls)
		}
	}
}

// TestSinceFollowerConcurrent runs the follower against concurrent
// writers through every mutation entry point, journal wraps and
// InvalidateAll included, over several seeded rounds. Its version
// never goes backwards, no poll misses a change it claims to cover,
// and once the writers stop, one more poll leaves it equal to Snapshot.
func TestSinceFollowerConcurrent(t *testing.T) {
	const rounds, writers, each = 16, 4, 3000
	for round := 0; round < rounds; round++ {
		inv := New(itemGraph(), nil)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < each; i++ {
					mutate(rng, inv, 48)
				}
			}(int64(round*writers + w + 1))
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()

		f := &follower{mirror: map[string]uint64{}}
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			f.poll(t, inv)
		}
		f.poll(t, inv)
		if want := inv.snapshot(); !maps.Equal(f.mirror, want) {
			t.Fatalf("round %d: follower did not converge: %d keyspaces mirrored, %d live", round, len(f.mirror), len(want))
		}
	}
}
