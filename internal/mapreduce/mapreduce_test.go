package mapreduce

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/keyhash"
)

func TestWordCountSmall(t *testing.T) {
	w := cluster.NewWorld(3)
	docs := []string{
		"the quick brown fox",
		"THE lazy dog and the fox",
		"dog!",
	}
	counts, err := WordCount(w, docs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"the": 3, "fox": 2, "dog": 2, "quick": 1, "brown": 1, "lazy": 1, "and": 1}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("%q = %d, want %d", k, counts[k], v)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("got %d distinct words, want %d", len(counts), len(want))
	}
}

func TestWordCountMatchesSerialProperty(t *testing.T) {
	f := func(seedWords [12]uint8, ranks uint8) bool {
		vocab := []string{"alpha", "beta", "gamma", "delta"}
		var docs []string
		for i, s := range seedWords {
			docs = append(docs, vocab[int(s)%len(vocab)]+" "+vocab[i%len(vocab)])
		}
		serial := map[string]int{}
		for _, d := range docs {
			for _, w := range Tokenize(d) {
				serial[w]++
			}
		}
		world := cluster.NewWorld(int(ranks%6) + 1)
		got, err := WordCount(world, docs)
		if err != nil {
			return false
		}
		if len(got) != len(serial) {
			return false
		}
		for k, v := range serial {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKeysHashConsistently(t *testing.T) {
	// Each key must be reduced on exactly one rank: run a job whose
	// reduce records which rank handled each key.
	const P = 4
	w := cluster.NewWorld(P)
	var mu sync.Mutex
	owner := map[int][]int{}
	job := &Job[int, int, int, int]{
		Map:    func(in int, emit func(int, int)) { emit(in%50, 1) },
		Reduce: func(k int, vs []int) int { return len(vs) },
	}
	inputs := make([]int, 1000)
	for i := range inputs {
		inputs[i] = i
	}
	shards := cluster.SplitEven(inputs, P)
	err := w.Run(func(c *cluster.Comm) {
		res := job.Run(c, shards[c.Rank()])
		mu.Lock()
		for k := range res {
			owner[k] = append(owner[k], c.Rank())
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(owner) != 50 {
		t.Fatalf("expected 50 keys, got %d", len(owner))
	}
	for k, rs := range owner {
		if len(rs) != 1 {
			t.Errorf("key %d reduced on multiple ranks %v", k, rs)
		}
	}
}

func TestReduceSeesAllValues(t *testing.T) {
	const P = 3
	w := cluster.NewWorld(P)
	job := &Job[int, string, int, int]{
		Map:    func(in int, emit func(string, int)) { emit("total", in) },
		Reduce: func(_ string, vs []int) int { return sum(vs) },
	}
	inputs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	shards := cluster.SplitEven(inputs, P)
	var got int
	err := w.Run(func(c *cluster.Comm) {
		merged := job.RunToRoot(c, shards[c.Rank()])
		if c.Rank() == 0 {
			got = merged["total"]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 45 {
		t.Errorf("total = %d, want 45", got)
	}
}

func TestCombinerReducesTraffic(t *testing.T) {
	// C2: the same job with a combiner must ship strictly fewer bytes.
	docs := []string{
		strings.Repeat("apple banana apple cherry apple ", 100),
		strings.Repeat("banana banana cherry apple date ", 100),
	}
	run := func(withCombiner bool) (int64, map[string]int) {
		w := cluster.NewWorld(2)
		job := WordCountJob()
		if !withCombiner {
			job.Combine = nil
		}
		shards := cluster.SplitEven(docs, 2)
		var merged map[string]int
		err := w.Run(func(c *cluster.Comm) {
			res := job.RunToRoot(c, shards[c.Rank()])
			if c.Rank() == 0 {
				merged = res
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.TotalBytes(), merged
	}
	bytesOn, resOn := run(true)
	bytesOff, resOff := run(false)
	if bytesOn >= bytesOff {
		t.Errorf("combiner did not cut traffic: on=%d off=%d", bytesOn, bytesOff)
	}
	for k, v := range resOff {
		if resOn[k] != v {
			t.Errorf("combiner changed result for %q: %d vs %d", k, resOn[k], v)
		}
	}
}

func TestSingleRankJob(t *testing.T) {
	w := cluster.NewWorld(1)
	job := WordCountJob()
	var res map[string]int
	err := w.Run(func(c *cluster.Comm) {
		// Single-rank world: the guard never diverges, so the collectives
		// inside job.Run are safe behind it.
		//peachyvet:allow protocol
		if c.Rank() == 0 {
			res = job.Run(c, []string{"a b a"})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res["a"] != 2 || res["b"] != 1 {
		t.Errorf("single-rank results %v", res)
	}
}

func TestEmptyInputs(t *testing.T) {
	w := cluster.NewWorld(3)
	counts, err := WordCount(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 0 {
		t.Errorf("empty input produced %v", counts)
	}
}

func TestJobValidation(t *testing.T) {
	w := cluster.NewWorld(1)
	job := &Job[int, int, int, int]{}
	err := w.Run(func(c *cluster.Comm) { job.Run(c, nil) })
	if err == nil || !strings.Contains(err.Error(), "needs Map and Reduce") {
		t.Errorf("missing Map/Reduce not reported: %v", err)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! 42 foo_bar")
	want := []string{"hello", "world", "42", "foo", "bar"}
	if len(got) != len(want) {
		t.Fatalf("tokens %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q want %q", i, got[i], want[i])
		}
	}
}

func TestHashKeyStability(t *testing.T) {
	if keyhash.Of("alpha") != keyhash.Of("alpha") {
		t.Error("string hash unstable")
	}
	if keyhash.Of(42) != keyhash.Of(42) {
		t.Error("int hash unstable")
	}
	if keyhash.Of("a") == keyhash.Of("b") {
		t.Error("suspicious collision")
	}
	type custom struct{ A, B int }
	if keyhash.Of(custom{1, 2}) != keyhash.Of(custom{1, 2}) {
		t.Error("struct hash unstable")
	}
}

// TestSignedZeroKeysReduceTogether: -0 and +0 are one key under == and in
// Go maps, so all four of their values must reach one Reduce, on one rank.
func TestSignedZeroKeysReduceTogether(t *testing.T) {
	checkEqualKeysReduceTogether(t, 0, math.Copysign(0, -1))
}

// TestSignedZeroCompositeKeysReduceTogether: a struct, array or interface
// key that holds -0 where its twin holds +0 equals it under ==, so the
// twins are one key too.
func TestSignedZeroCompositeKeysReduceTogether(t *testing.T) {
	negZero := math.Copysign(0, -1)
	type point struct {
		X    float64
		_    int
		Z    complex128
		Name string
	}
	type nested struct {
		P  [2]point
		ID int8
	}
	t.Run("struct", func(t *testing.T) {
		checkEqualKeysReduceTogether(t, point{X: 0, Z: 1, Name: "a"}, point{X: negZero, Z: complex(1, negZero), Name: "a"})
	})
	t.Run("array", func(t *testing.T) {
		checkEqualKeysReduceTogether(t, [3]float32{1, 0, 2}, [3]float32{1, float32(negZero), 2})
	})
	t.Run("nested", func(t *testing.T) {
		checkEqualKeysReduceTogether(t, nested{P: [2]point{{X: 0}, {X: 3}}, ID: 7}, nested{P: [2]point{{X: negZero}, {X: 3}}, ID: 7})
	})
	t.Run("interface", func(t *testing.T) {
		checkEqualKeysReduceTogether[any](t, 0.0, negZero)
	})
}

// checkEqualKeysReduceTogether requires keys a and b, equal under ==, to
// reach one Reduce, on one rank, with all four of their values at
// P = 1..5.
func checkEqualKeysReduceTogether[K comparable](t *testing.T, a, b K) {
	t.Helper()
	if a != b {
		t.Fatalf("%v and %v are not equal keys", a, b)
	}
	job := &Job[int, K, int, int]{
		Map: func(in int, emit func(K, int)) {
			if in%2 == 0 {
				emit(a, 1)
			} else {
				emit(b, 1)
			}
		},
		Reduce: func(_ K, vs []int) int { return len(vs) },
	}
	for p := 1; p <= 5; p++ {
		shards := cluster.SplitEven([]int{0, 1, 2, 3}, p)
		counts := make([][]int, p)
		err := cluster.NewWorld(p).Run(func(c *cluster.Comm) {
			for _, n := range job.Run(c, shards[c.Rank()]) {
				counts[c.Rank()] = append(counts[c.Rank()], n)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Concat(counts...); !slices.Equal(got, []int{4}) {
			t.Errorf("P=%d: value counts of the reduced keys by rank %v, want one key with 4", p, counts)
		}
	}
}

func BenchmarkWordCount(b *testing.B) {
	doc := strings.Repeat("lorem ipsum dolor sit amet consectetur ", 200)
	docs := []string{doc, doc, doc, doc}
	for _, p := range []int{1, 2, 4} {
		b.Run(string(rune('0'+p))+"ranks", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := cluster.NewWorld(p)
				if _, err := WordCount(w, docs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestTopK(t *testing.T) {
	counts := map[string]int{"a": 5, "b": 9, "c": 5, "d": 1}
	top := TopK(counts, 3)
	if len(top) != 3 {
		t.Fatalf("len %d", len(top))
	}
	if top[0].Key != "b" || top[1].Key != "a" || top[2].Key != "c" {
		t.Errorf("order %v (ties must break by key)", top)
	}
	if len(TopK(counts, 10)) != 4 {
		t.Error("over-clamp")
	}
	if len(TopK(nil, 3)) != 0 {
		t.Error("empty input")
	}
}
