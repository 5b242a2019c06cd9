package standin

import (
	"runtime"
	"sort"
	"sync"
)

// A small in-memory MapReduce framework, the one WebPIEEngine runs on:
// enough of the Hadoop execution model — parallel mappers over input
// splits, a hash shuffle, parallel reducers, and a per-job
// synchronization barrier — to reproduce the WebPIE reasoner's
// architecture (Urbani et al., ESWC 2009), the distributed competitor of
// the paper's Table 2.
//
// The framework is deliberately faithful to the aspects that dominate
// WebPIE's cost profile: every job materializes its full intermediate
// key space, the shuffle copies every emitted pair, and nothing is
// shared between jobs except their materialized outputs.

// KV is one key/value record. Keys and values are opaque 64-bit triples
// packed by the caller.
type KV struct {
	Key   uint64
	Value [3]uint64
}

// Mapper transforms one input record into zero or more intermediate
// records via emit.
type Mapper func(record [3]uint64, emit func(KV))

// Reducer folds all values that share a key into zero or more output
// records via emit.
type Reducer func(key uint64, values [][3]uint64, emit func([3]uint64))

// JobConfig tunes a RunJob call.
type JobConfig struct {
	// Workers is the mapper/reducer parallelism (default GOMAXPROCS).
	Workers int
	// Partitions is the number of shuffle partitions (default Workers).
	Partitions int
}

func (c JobConfig) withDefaults() JobConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Workers
	}
	return c
}

// JobStats reports what one job execution did.
type JobStats struct {
	InputRecords        int
	IntermediateRecords int // records copied through the shuffle
	OutputRecords       int
}

// RunJob executes one MapReduce job over the input records and returns the
// reducer output and the job statistics.
func RunJob(input [][3]uint64, m Mapper, r Reducer, cfg JobConfig) ([][3]uint64, JobStats) {
	cfg = cfg.withDefaults()
	stats := JobStats{InputRecords: len(input)}

	// ---- Map phase: split the input, run mappers in parallel, hash
	// emitted records into per-worker × per-partition buckets.
	buckets := make([][][]KV, cfg.Workers)
	var wg sync.WaitGroup
	chunk := (len(input) + cfg.Workers - 1) / cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo > len(input) {
			lo = len(input)
		}
		if hi > len(input) {
			hi = len(input)
		}
		buckets[w] = make([][]KV, cfg.Partitions)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			local := buckets[w]
			emit := func(kv KV) {
				p := int(hash64(kv.Key) % uint64(cfg.Partitions))
				local[p] = append(local[p], kv)
			}
			for i := lo; i < hi; i++ {
				m(input[i], emit)
			}
		}(w, lo, hi)
	}
	wg.Wait()

	// ---- Shuffle: concatenate each partition's buckets (the "copy"
	// Hadoop performs over the network).
	partitions := make([][]KV, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		total := 0
		for w := 0; w < cfg.Workers; w++ {
			total += len(buckets[w][p])
		}
		part := make([]KV, 0, total)
		for w := 0; w < cfg.Workers; w++ {
			part = append(part, buckets[w][p]...)
		}
		partitions[p] = part
		stats.IntermediateRecords += total
	}

	// ---- Reduce phase: sort each partition by key (Hadoop's merge
	// sort), group runs, run reducers in parallel.
	outputs := make([][][3]uint64, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			part := partitions[p]
			sort.Slice(part, func(i, j int) bool { return part[i].Key < part[j].Key })
			var out [][3]uint64
			emit := func(rec [3]uint64) { out = append(out, rec) }
			i := 0
			for i < len(part) {
				j := i
				for j < len(part) && part[j].Key == part[i].Key {
					j++
				}
				values := make([][3]uint64, 0, j-i)
				for k := i; k < j; k++ {
					values = append(values, part[k].Value)
				}
				r(part[i].Key, values, emit)
				i = j
			}
			outputs[p] = out
		}(p)
	}
	wg.Wait()

	var out [][3]uint64
	for p := 0; p < cfg.Partitions; p++ {
		out = append(out, outputs[p]...)
	}
	stats.OutputRecords = len(out)
	return out, stats
}

// hash64 is a Fibonacci-style mixer good enough for partitioning.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
