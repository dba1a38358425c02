package mapreduce

import (
	"sort"
	"strings"
	"unicode"

	"repro/internal/cluster"
)

// WordCountJob returns the classic word-counting job the assignment uses
// as its MapReduce warm-up exercise (paper §2): map each document to
// (word, 1) pairs, combine locally, and reduce by summing.
func WordCountJob() *Job[string, string, int, int] {
	return &Job[string, string, int, int]{
		Map: func(doc string, emit func(string, int)) {
			for _, w := range Tokenize(doc) {
				emit(w, 1)
			}
		},
		Combine: func(_ string, vs []int) int { return sum(vs) },
		Reduce:  func(_ string, vs []int) int { return sum(vs) },
	}
}

// WordCount counts words across documents distributed over the ranks of
// world. docs is sharded evenly; the merged counts are returned.
func WordCount(world *cluster.World, docs []string) (map[string]int, error) {
	shards := cluster.SplitEven(docs, world.Size())
	results := make([]map[string]int, world.Size())
	err := world.Run(func(c *cluster.Comm) {
		local := WordCountJob().Run(c, shards[c.Rank()])
		results[c.Rank()] = local
	})
	if err != nil {
		return nil, err
	}
	merged := make(map[string]int)
	for _, m := range results {
		for k, v := range m {
			merged[k] += v
		}
	}
	return merged, nil
}

// Tokenize lower-cases a document and splits it into maximal runs of
// letters and digits.
func Tokenize(doc string) []string {
	return strings.FieldsFunc(strings.ToLower(doc), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

func sum(vs []int) int {
	s := 0
	for _, v := range vs {
		s += v
	}
	return s
}

// TopK returns the k entries of counts with the largest values (ties by
// key ascending) — the classic follow-on job to word count ("invert and
// take the head"). Exposed here because chaining jobs is the natural next
// exercise after the warm-up.
func TopK(counts map[string]int, k int) []Pair[string, int] {
	out := make([]Pair[string, int], 0, len(counts))
	for w, n := range counts {
		out = append(out, Pair[string, int]{Key: w, Value: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
