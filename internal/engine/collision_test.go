package engine

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Adversarial fingerprint-collision suite (ISSUE 8 satellite 1). Genuine
// 64-bit collisions cannot be brute-forced, so the tests narrow fpMask —
// the sanctioned internal hook — to make collisions routine (mask 0xF:
// sixteen distinct fingerprints for the whole universe; mask 0: every
// tuple collides with every other) and then assert that membership,
// insert newness, insertion order, projection-index probes, provenance,
// and DRed retraction remain exact. A committed regression seed pins the
// production hash: tuple pairs that collide under mask 0xFFFF today must
// still collide when the test reruns, so a hash change is loud, not
// silent.

// withFPMask runs f with fpMask narrowed to mask. Relations must be
// created AND used under the same mask (a relation hashes consistently
// for its lifetime), so f does both; the mask is restored afterwards.
func withFPMask(t *testing.T, mask uint64, f func()) {
	t.Helper()
	old := fpMask
	fpMask = mask
	defer func() { fpMask = old }()
	f()
}

// withRefCheck runs f with the map-of-strings differential oracle mirrored
// into every relation created inside it.
func withRefCheck(t *testing.T, f func()) {
	t.Helper()
	refCheckEnabled = true
	defer func() { refCheckEnabled = false }()
	f()
}

// TestFingerprintCollisionSetExactness drives randomized inserts, lookups,
// and probes against relations whose fingerprints are crushed to a handful
// of values, with the string-keyed oracle verifying every operation.
func TestFingerprintCollisionSetExactness(t *testing.T) {
	for _, mask := range []uint64{0, 0xF, 0xFF} {
		mask := mask
		t.Run(fmt.Sprintf("mask%#x", mask), func(t *testing.T) {
			withFPMask(t, mask, func() {
				withRefCheck(t, func() {
					rng := rand.New(rand.NewSource(int64(mask) + 7))
					r := NewRelation(3)
					var mirror []Tuple
					seen := map[[3]int32]bool{}
					for step := 0; step < 3000; step++ {
						switch rng.Intn(4) {
						case 0, 1:
							tpl := Tuple{int32(rng.Intn(12)), int32(rng.Intn(12)), int32(rng.Intn(12))}
							key := [3]int32{tpl[0], tpl[1], tpl[2]}
							isNew := r.Insert(tpl)
							if isNew == seen[key] {
								t.Fatalf("step %d: Insert(%v) newness=%v, want %v", step, tpl, isNew, !seen[key])
							}
							if !seen[key] {
								seen[key] = true
								mirror = append(mirror, append(Tuple(nil), tpl...))
							}
						case 2:
							tpl := Tuple{int32(rng.Intn(12)), int32(rng.Intn(12)), int32(rng.Intn(12))}
							if r.Contains(tpl) != seen[[3]int32{tpl[0], tpl[1], tpl[2]}] {
								t.Fatalf("step %d: Contains(%v) wrong", step, tpl)
							}
						default:
							nCols := 1 + rng.Intn(3)
							cols := rng.Perm(3)[:nCols]
							vals := make([]int32, nCols)
							for i := range vals {
								vals[i] = int32(rng.Intn(12))
							}
							got := map[int]bool{}
							prev := int32(-1)
							for _, ti := range matchIDs(r, cols, vals) {
								// The bucket walk yields insertion order.
								if ti <= prev {
									t.Fatalf("step %d: Match(%v,%v) yielded row %d after %d", step, cols, vals, ti, prev)
								}
								prev = ti
								got[int(ti)] = true
							}
							for i, tpl := range mirror {
								want := true
								for j, c := range cols {
									if tpl[c] != vals[j] {
										want = false
									}
								}
								if got[i] != want {
									t.Fatalf("step %d: Match(%v,%v) row %d=%v, want %v", step, cols, vals, i, got[i], want)
								}
							}
							if len(got) > len(mirror) {
								t.Fatalf("step %d: Match returned phantom rows", step)
							}
						}
					}
					// Insertion order survives collisions.
					if r.Len() != len(mirror) {
						t.Fatalf("Len=%d, mirror=%d", r.Len(), len(mirror))
					}
					for i, want := range mirror {
						if !tupleEq(r.Tuple(i), want) {
							t.Fatalf("row %d = %v, want %v", i, r.Tuple(i), want)
						}
					}
					// Clone isolation under collisions.
					c := r.Clone()
					extra := Tuple{99, 99, 99}
					c.Insert(extra)
					if r.Contains(extra) {
						t.Fatal("clone insert leaked into original")
					}
					if !c.Contains(extra) || c.Len() != r.Len()+1 {
						t.Fatal("clone lost its own insert")
					}
				})
			})
		})
	}
}

// TestFingerprintCollisionRegressionSeed re-hashes the committed colliding
// tuple pairs: each pair must still collide under its recorded mask (the
// hash function is pinned — see testdata/fp_collisions.csv for how to
// regenerate after an intentional change), and a relation fed both halves
// of every pair must keep them exactly apart.
func TestFingerprintCollisionRegressionSeed(t *testing.T) {
	f, err := os.Open("testdata/fp_collisions.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type pair struct {
		mask uint64
		a, b Tuple
	}
	var pairs []pair
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 7 {
			t.Fatalf("malformed seed line %q", line)
		}
		nums := make([]int64, 7)
		for i, p := range parts {
			n, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				t.Fatalf("seed line %q: %v", line, err)
			}
			nums[i] = n
		}
		pairs = append(pairs, pair{
			mask: uint64(nums[0]),
			a:    Tuple{int32(nums[1]), int32(nums[2]), int32(nums[3])},
			b:    Tuple{int32(nums[4]), int32(nums[5]), int32(nums[6])},
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(pairs) < 3 {
		t.Fatalf("only %d seed pairs — regenerate testdata/fp_collisions.csv", len(pairs))
	}
	for i, p := range pairs {
		if tupleEq(p.a, p.b) {
			t.Fatalf("seed %d: tuples not distinct: %v", i, p.a)
		}
		withFPMask(t, p.mask, func() {
			if fingerprint(p.a) != fingerprint(p.b) {
				t.Fatalf("seed %d: %v and %v no longer collide under mask %#x — "+
					"the fingerprint function changed; regenerate testdata/fp_collisions.csv",
					i, p.a, p.b, p.mask)
			}
			r := NewRelation(3)
			if !r.Insert(p.a) || !r.Insert(p.b) {
				t.Fatalf("seed %d: colliding pair not both new", i)
			}
			if r.Insert(p.a) || r.Insert(p.b) {
				t.Fatalf("seed %d: duplicate insert accepted", i)
			}
			if !r.Contains(p.a) || !r.Contains(p.b) {
				t.Fatalf("seed %d: membership lost a colliding tuple", i)
			}
			// Probe each tuple's full projection: exactly its own row.
			for _, probe := range []Tuple{p.a, p.b} {
				got := matchIDs(r, []int{0, 1, 2}, probe)
				if len(got) != 1 || !tupleEq(r.Tuple(int(got[0])), probe) {
					t.Fatalf("seed %d: Match(%v) = %v", i, probe, got)
				}
			}
		})
	}
}

// TestDRedRetractionUnderCollisions evaluates transitive closure, retracts
// edges with fingerprints crushed to four bits (the DRed dead sets, the
// rebuilt relations, and the provenance map all key on fingerprints), and
// checks the result against a from-scratch evaluation of the surviving
// facts — answers, Stats-visible fact counts, and provenance replay.
func TestDRedRetractionUnderCollisions(t *testing.T) {
	withFPMask(t, 0xF, func() {
		withRefCheck(t, func() {
			p := mustParse(t, tcSrc)
			opt := Options{TrackProvenance: true}
			full, err := Eval(p, chainDB(12), opt)
			if err != nil {
				t.Fatal(err)
			}
			removed := NewDatabase()
			removed.Add("p", "4", "5")
			removed.Add("p", "9", "10")
			ret, err := Retract(p, full, removed, opt)
			if err != nil {
				t.Fatal(err)
			}

			scratchDB := chainDB(12)
			if scratchDB.RemoveFacts("p", [][]string{{"4", "5"}, {"9", "10"}}) != 2 {
				t.Fatal("RemoveFacts under collisions lost a row")
			}
			scratch, err := Eval(p, scratchDB, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range scratch.DB.Keys() {
				if !reflect.DeepEqual(ret.DB.Facts(key), scratch.DB.Facts(key)) {
					t.Fatalf("relation %s diverged after collision retraction:\n dred: %v\n scratch: %v",
						key, ret.DB.Facts(key), scratch.DB.Facts(key))
				}
			}
			// Provenance stays replayable for surviving derived facts.
			rows := ret.DB.Facts("a")
			if len(rows) == 0 {
				t.Fatal("no derived facts survived")
			}
			tree, ok := ret.Derivation("a", rows[0])
			if !ok || tree == nil {
				t.Fatalf("Derivation(%v) not reconstructable after retraction", rows[0])
			}
		})
	})
}
