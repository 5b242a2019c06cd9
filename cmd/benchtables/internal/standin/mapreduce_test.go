package standin

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestWordCountStyleJob(t *testing.T) {
	// Count occurrences of each subject: map emits (s, triple), reduce
	// emits (s, count, 0).
	input := [][3]uint64{
		{1, 10, 100}, {1, 11, 101}, {2, 10, 100}, {1, 12, 102},
	}
	m := func(rec [3]uint64, emit func(KV)) {
		emit(KV{Key: rec[0], Value: rec})
	}
	r := func(key uint64, values [][3]uint64, emit func([3]uint64)) {
		emit([3]uint64{key, uint64(len(values)), 0})
	}
	out, stats := RunJob(input, m, r, JobConfig{Workers: 4, Partitions: 4})
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	if len(out) != 2 || out[0] != [3]uint64{1, 3, 0} || out[1] != [3]uint64{2, 1, 0} {
		t.Fatalf("out = %v", out)
	}
	if stats.InputRecords != 4 || stats.IntermediateRecords != 4 || stats.OutputRecords != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestGroupingIsExact(t *testing.T) {
	// Every value emitted under one key must reach exactly one reducer
	// call, regardless of worker/partition counts.
	f := func(seedKeys []uint8, workers, partitions uint8) bool {
		if len(seedKeys) == 0 {
			return true
		}
		input := make([][3]uint64, len(seedKeys))
		expect := map[uint64]int{}
		for i, k := range seedKeys {
			input[i] = [3]uint64{uint64(k), uint64(i), 0}
			expect[uint64(k)]++
		}
		m := func(rec [3]uint64, emit func(KV)) {
			emit(KV{Key: rec[0], Value: rec})
		}
		got := map[uint64]int{}
		calls := map[uint64]int{}
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		r := func(key uint64, values [][3]uint64, emit func([3]uint64)) {
			<-mu
			got[key] += len(values)
			calls[key]++
			mu <- struct{}{}
		}
		RunJob(input, m, r, JobConfig{
			Workers:    int(workers%8) + 1,
			Partitions: int(partitions%8) + 1,
		})
		if len(got) != len(expect) {
			return false
		}
		for k, n := range expect {
			if got[k] != n || calls[k] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEmptyInput(t *testing.T) {
	out, stats := RunJob(nil,
		func([3]uint64, func(KV)) {},
		func(uint64, [][3]uint64, func([3]uint64)) {},
		JobConfig{})
	if len(out) != 0 || stats.InputRecords != 0 {
		t.Fatalf("empty job produced %v %+v", out, stats)
	}
}

func TestFanOutMapper(t *testing.T) {
	// A mapper may emit many records per input.
	input := [][3]uint64{{1, 0, 0}}
	m := func(rec [3]uint64, emit func(KV)) {
		for i := uint64(0); i < 100; i++ {
			emit(KV{Key: i, Value: [3]uint64{i, i, i}})
		}
	}
	r := func(key uint64, values [][3]uint64, emit func([3]uint64)) {
		for _, v := range values {
			emit(v)
		}
	}
	out, stats := RunJob(input, m, r, JobConfig{Workers: 3, Partitions: 5})
	if len(out) != 100 || stats.IntermediateRecords != 100 {
		t.Fatalf("fan-out lost records: %d out, %+v", len(out), stats)
	}
}

func TestDeterministicWithinPartitionOrderIrrelevant(t *testing.T) {
	// Same input, different worker counts: the output multiset must not
	// change.
	input := make([][3]uint64, 500)
	for i := range input {
		input[i] = [3]uint64{uint64(i % 37), uint64(i), 0}
	}
	m := func(rec [3]uint64, emit func(KV)) { emit(KV{Key: rec[0], Value: rec}) }
	r := func(key uint64, values [][3]uint64, emit func([3]uint64)) {
		emit([3]uint64{key, uint64(len(values)), 0})
	}
	normalize := func(out [][3]uint64) [][3]uint64 {
		sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
		return out
	}
	a, _ := RunJob(input, m, r, JobConfig{Workers: 1, Partitions: 1})
	b, _ := RunJob(input, m, r, JobConfig{Workers: 7, Partitions: 3})
	a, b = normalize(a), normalize(b)
	if len(a) != len(b) {
		t.Fatal("worker count changed output size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
