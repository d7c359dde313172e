package hdfs

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// BenchmarkHDFSReadWrite measures the fault-tolerant data-path ops from
// start to completion on the paper testbed: a node-local block read
// (one disk flow), a remote read (the source's disk plus a network
// transfer) and a 3-replica StartWrite (three disk writes plus two
// pipeline transfers). Allocations per op are the op object, its flow
// list and its bound callbacks; the flows come from the fabrics' pools.
func BenchmarkHDFSReadWrite(b *testing.B) {
	setup := func() (*sim.Engine, *cluster.Cluster, *FileSystem, func()) {
		eng := sim.NewEngine()
		c := cluster.New(eng, cluster.PaperConfig())
		fs := New(c, sim.NewSource(1).Stream("hdfs"))
		return eng, c, fs, func() { eng.Stop() }
	}
	b.Run("read/local", func(b *testing.B) {
		eng, _, fs, stop := setup()
		blk := fs.Create("in", 128).Blocks[0]
		reader := blk.Replicas[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.StartRead(blk, reader, stop)
			eng.Run()
		}
	})
	b.Run("read/remote", func(b *testing.B) {
		eng, c, fs, stop := setup()
		blk := fs.Create("in", 128).Blocks[0]
		var reader *cluster.Node
		for _, n := range c.Nodes {
			if !blk.HasReplicaOn(n) {
				reader = n
				break
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.StartRead(blk, reader, stop)
			eng.Run()
		}
	})
	b.Run("write/3-replica", func(b *testing.B) {
		eng, c, fs, stop := setup()
		writer := c.Nodes[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.StartWrite(writer, 64, stop)
			eng.Run()
		}
	})
}
