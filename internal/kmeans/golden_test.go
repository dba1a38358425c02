package kmeans

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataio"
)

// golden pins one clustering run bit for bit: the iteration count, the
// changes per iteration, a hash of the assignment and the IEEE bits of
// every centroid coordinate.
type golden struct {
	iterations int
	changes    []int
	assignFNV  uint64
	centroids  []uint64
}

// record reduces a result to its golden form.
func record(res *Result) golden {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range res.Assign {
		binary.LittleEndian.PutUint64(b[:], uint64(a))
		h.Write(b[:])
	}
	var bits []uint64
	for _, c := range res.Centroids {
		for _, v := range c {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return golden{
		iterations: res.Iterations,
		changes:    append([]int(nil), res.ChangesPerIter...),
		assignFNV:  h.Sum64(),
		centroids:  bits,
	}
}

// TestResultsGolden pins the results of the shapes the benchmark runs,
// the K=16 row-wise kernel and mini-batch K-means. A kernel change that
// moves any assignment or centroid bit fails here.
func TestResultsGolden(t *testing.T) {
	// The kmeans-c4 workload: overlapping blobs, K=8 on the lane kernel.
	c4 := dataio.GaussianMixture(1, 4000, 4, 8, 50).Points
	c4Opts := Options{K: 8, MaxIter: 20, Seed: 1}
	// K=16 reaches the row-wise kernel; d=5 runs its odd tail.
	k16 := dataio.GaussianMixture(2, 3000, 5, 16, 30).Points
	k16Opts := Options{K: 16, MaxIter: 20, Seed: 2}
	mb := dataio.GaussianMixture(3, 2000, 3, 6, 20).Points

	distributed := func(points [][]float64, opts Options) *Result {
		res, err := RunDistributed(cluster.NewWorld(4), points, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cases := []struct {
		name string
		run  func() *Result
		want golden
	}{
		{"c4/Run", func() *Result { return Run(c4, c4Opts) }, goldenC4Run},
		{"c4/RunDistributed/P4", func() *Result { return distributed(c4, c4Opts) }, goldenC4Distributed},
		{"k16/Run", func() *Result { return Run(k16, k16Opts) }, goldenK16Run},
		{"minibatch", func() *Result { return MiniBatch(mb, Options{K: 6, Seed: 3}, 128, 40) }, goldenMiniBatch},
	}
	for _, tc := range cases {
		got := record(tc.run())
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: result moved\n got: %#v\nwant: %#v", tc.name, got, tc.want)
		}
	}
}

// The values below were recorded with a float `<` scan as the kernel's
// argmin. Do not edit them to make a kernel change pass.
var goldenC4Run = golden{
	iterations: 20,
	changes:    []int{4000, 730, 372, 268, 219, 180, 127, 107, 71, 60, 46, 40, 37, 38, 45, 41, 31, 38, 37, 28},
	assignFNV:  0xe084f548f796624,
	centroids: []uint64{
		0x4035449761d71fc5, 0x4054e66be0a7779a, 0x4052ecc6fdbf25c7, 0xc03c6ba70feec642,
		0x405ed4bd25ac1f9d, 0x40531cf0c1962017, 0x40429ef5c4cf855f, 0x402f254bc432d3d2,
		0x4056a7caff55aae7, 0x403204e5a61bae75, 0x404b2542b4972e27, 0x405be1414f693203,
		0x3fd50bf3bac711b3, 0x4033c52807edb5e9, 0x405093cf7e4c0c91, 0x4050c53eee8cb2ef,
		0x404e3e02f78f5fc3, 0xc021cb06b0c53fc9, 0x3ff3e401c7bd6cbc, 0x4023bc60746c5682,
		0x4057d39ad4f8212e, 0x40356d22ce6ef46a, 0x405dd77b8369dd59, 0x40273e261d2e669d,
		0x404e17d5dd86eeda, 0x405f49a4dfb1d87d, 0x4055f3765f350f3e, 0x405195199eb74847,
		0x403df8255a38359d, 0x40554fa2c8b4d1db, 0xc02e7f3cb8c5c148, 0x404e440ae75cfc9a,
	},
}

var goldenC4Distributed = golden{
	iterations: 20,
	changes:    []int{4000, 730, 372, 268, 219, 180, 127, 107, 71, 60, 46, 40, 37, 38, 45, 41, 31, 38, 37, 28},
	assignFNV:  0xe084f548f796624,
	centroids: []uint64{
		0x4035449761d71fc2, 0x4054e66be0a77798, 0x4052ecc6fdbf25c7, 0xc03c6ba70feec640,
		0x405ed4bd25ac1f96, 0x40531cf0c1962015, 0x40429ef5c4cf855b, 0x402f254bc432d3d6,
		0x4056a7caff55aae5, 0x403204e5a61bae77, 0x404b2542b4972e24, 0x405be1414f693209,
		0x3fd50bf3bac7119d, 0x4033c52807edb5ea, 0x405093cf7e4c0c91, 0x4050c53eee8cb2ee,
		0x404e3e02f78f5fc1, 0xc021cb06b0c53fcd, 0x3ff3e401c7bd6cbe, 0x4023bc60746c5687,
		0x4057d39ad4f8212f, 0x40356d22ce6ef465, 0x405dd77b8369dd61, 0x40273e261d2e66a2,
		0x404e17d5dd86eed6, 0x405f49a4dfb1d87f, 0x4055f3765f350f40, 0x405195199eb74849,
		0x403df8255a3835a1, 0x40554fa2c8b4d1dc, 0xc02e7f3cb8c5c147, 0x404e440ae75cfc9a,
	},
}

var goldenK16Run = golden{
	iterations: 20,
	changes:    []int{3000, 682, 385, 245, 193, 153, 129, 99, 69, 66, 51, 50, 45, 30, 30, 32, 31, 24, 24, 24},
	assignFNV:  0xd099dfda6cab212f,
	centroids: []uint64{
		0x400f5d78894113a6, 0x404b02ce82744e67, 0x40029e173690fc76, 0x4031f68cf1b6860d,
		0x40318cb4440086a7, 0x405a125d990c0016, 0x4032de76f183754c, 0x4047dd8a29cf1309,
		0x3ff200f4140dbd0e, 0x4056631e05b03b91, 0x3ffc75beda206e70, 0x40589b759de04fec,
		0x403dbb8ce415f693, 0x40572f966ef21de1, 0x40449b386deb6aaa, 0x404e2e1419d62862,
		0x402926be9cadee1b, 0x402d9ba8f2bb55e1, 0x40573bcb148cba4c, 0x4021eeb207c9f240,
		0x40193f314e92e936, 0x4038f32f6639e7f1, 0x404ba7c2d2cba737, 0x404eb5f59c69a6a1,
		0x402276a4e4b068b7, 0x4042c049d6a08904, 0x402cd71ec22704dc, 0x4037360d6edd1d6d,
		0x4050f2cf213fa6ab, 0x4052e60a1e13b97f, 0x40423937e611640a, 0x405a0aed8d1bea2f,
		0x4046a10510ba83bf, 0x40307b10da5d2905, 0x402828b4dbdf8807, 0x4055915703234fc6,
		0x4056457ba1cdf7f1, 0x4040d92605ee7e5d, 0x404b20b420c292d0, 0x404f83d3661e7c99,
		0x40514521883fd1fe, 0x40423b65fcd1581e, 0x40571f205c45ff65, 0x405209daebeb53d5,
		0x4036a993deb50f1b, 0x404838ed6bc8ded3, 0x404e0691bb4c95fa, 0x404ebdda13c32ac2,
		0xc02450eea45b0829, 0x4050b32e657f3385, 0x405aad85c8ef3602, 0x40517ec6d7be8d65,
		0x404e815e68b2583e, 0x4051ac2331f9a468, 0xc021b638e93e31e3, 0x404678f0e53848c3,
		0x4054296f1dcfcbca, 0x40541455b94d143e, 0x4049e9b2bd5889e2, 0x4057708bd080bae9,
		0x4035a1cdd46e5cde, 0x401743601f94e25c, 0x405474375fa697ff, 0x402c30f890c9fd88,
		0x4056769ffeea6135, 0x40596e93959f2fba, 0x40575285d1cc09eb, 0x403f49f925abd93f,
		0x4037e13879780df3, 0xc021127da339e0ff, 0xc00604ccca8b3375, 0x40536f927c435491,
		0x4051c8fff224a7ea, 0x402d3f2cde57fdd9, 0x404be52b5cf43da8, 0x403bf6d1de3f174d,
		0x404d78967707e99d, 0x4039534c7d6bc853, 0x4042b158d465b029, 0x405b4236d2a8ba39,
	},
}

var goldenMiniBatch = golden{
	iterations: 40,
	assignFNV:  0x8817115c274bbea5,
	centroids: []uint64{
		0x404f6964cf296eb8, 0x4055629fa952ceed, 0x4044af21a76423a1, 0x402bf508df7e5701,
		0x404a5fc06a7aae54, 0x403095514907f529, 0x404cd0e6460b94d7, 0x40556e6b3b4ebed6,
		0x40545e18cd533ca5, 0x4039e0eebe441340, 0x404fba12c7302461, 0x40537a7c54130092,
		0x405639022f930a02, 0x404d36e71974e26c, 0x404ba891008f864c, 0x40485fbd7d78adee,
		0x403d99ee8453312a, 0x40430bb9e2527c9a,
	},
}
