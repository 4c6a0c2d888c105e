package main

import (
	"bytes"
	"testing"
)

// sequence renders the first n requests of a workload's timed sequence
// as one byte stream.
func sequence(t *testing.T, name string, seed uint64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		r := w.next(uint64(i))
		buf.WriteString(r.path())
		buf.WriteByte(' ')
		buf.Write(r.body)
		buf.WriteByte('\n')
	}
	for _, r := range append(w.hot, w.warmup...) {
		buf.Write(r.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range workloadNames {
		a := sequence(t, name, 7, 2000)
		b := sequence(t, name, 7, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different request sequences", name)
		}
		if c := sequence(t, name, 8, 2000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same request sequence", name)
		}
	}
}

// TestColdKeysNeverRepeat pins the promise that a cold key is sent once:
// over the timed sequence, the warm-up batch and the hot set.
func TestColdKeysNeverRepeat(t *testing.T) {
	const n = 60000
	for _, name := range []string{"plan-cold", "estimate-cold", "gate-mix"} {
		w, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range w.hot {
			seen[r.key] = true
		}
		cold := 0
		check := func(r request, where string) {
			if !r.cold {
				return
			}
			cold++
			if seen[r.key] {
				t.Fatalf("%s: %s repeats cold key %s", name, where, r.key)
			}
			seen[r.key] = true
		}
		for _, r := range w.warmup {
			check(r, "warm-up")
		}
		for i := uint64(0); i < n; i++ {
			check(w.next(i), "timed sequence")
		}
		if cold == 0 {
			t.Errorf("%s: no cold requests generated", name)
		}
	}
}

// TestMixIsStratified checks that every block of a cold workload holds
// each class once, so the cost mix does not drift with the seed.
func TestMixIsStratified(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		counts := map[int]int{}
		for i := uint64(0); i < 9*50; i++ {
			counts[blockClass(seed, saltClass, i, 9)]++
		}
		for c := 0; c < 9; c++ {
			if counts[c] != 50 {
				t.Fatalf("seed %d: class %d drawn %d times in 50 blocks, want 50", seed, c, counts[c])
			}
		}
	}
}

func TestFoldedBodiesShareKeys(t *testing.T) {
	w, err := newWorkload("plan-hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[string]bool{}
	for _, r := range w.hot {
		hot[r.key] = true
	}
	folded := 0
	for i := uint64(0); i < 5000; i++ {
		r := w.next(i)
		if !hot[r.key] {
			t.Fatalf("request %d asks for %s, outside the primed hot set", i, r.key)
		}
		if !bytes.Equal(r.body, planRequestBody(t, w, r.key)) {
			folded++
		}
	}
	if folded < 1000 || folded > 1500 {
		t.Errorf("%d of 5000 requests carry ignored fields, want about a quarter", folded)
	}
}

func planRequestBody(t *testing.T, w *workload, key string) []byte {
	t.Helper()
	for _, r := range w.hot {
		if r.key == key {
			return r.body
		}
	}
	t.Fatalf("no hot body for %s", key)
	return nil
}

func TestColdFractionIsInjective(t *testing.T) {
	seen := map[float64]uint64{}
	for i := uint64(0); i < 200000; i++ {
		f := coldFraction(11, i)
		if !(f > 0 && f < 1) {
			t.Fatalf("fraction %v out of (0,1)", f)
		}
		if j, ok := seen[f]; ok {
			t.Fatalf("indexes %d and %d share fraction %v", j, i, f)
		}
		seen[f] = i
		if !same((4000+f)-4000, f) {
			t.Fatalf("fraction %v does not survive addition to a base of 4000", f)
		}
	}
}
