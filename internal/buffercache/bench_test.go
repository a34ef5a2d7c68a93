package buffercache_test

import (
	"fmt"
	"testing"

	"odbscale/internal/buffercache"
	"odbscale/internal/odb"
	"odbscale/internal/system"
	"odbscale/internal/xrand"
)

// blockStream returns the block references of txns transactions of an
// odb.Generator at w warehouses, in generation order.
func blockStream(w, txns int) []buffercache.BlockID {
	gen := odb.NewGenerator(odb.NewLayout(w), xrand.New(1).Split(1))
	var out []buffercache.BlockID
	for i := 0; i < txns; i++ {
		txn := gen.Next(0)
		for _, op := range txn.Ops {
			if op.Kind == odb.OpRead || op.Kind == odb.OpWrite {
				out = append(out, op.Block)
			}
		}
		gen.Recycle(txn)
	}
	return out
}

// BenchmarkBufferCacheGet times one buffer get — a Lookup, an Install on
// a miss, a Release — on the Xeon platform's cache over the block
// streams of a cached (W=10) and a scaled (W=200) database, after one
// warming pass over the stream.
func BenchmarkBufferCacheGet(b *testing.B) {
	capacity := system.XeonQuad().BufferCacheMB * (1 << 20) / odb.BlockSize
	for _, w := range []int{10, 200} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			stream := blockStream(w, 4000)
			c := buffercache.New(buffercache.Config{Blocks: capacity})
			get := func(id buffercache.BlockID) {
				e := c.Lookup(id)
				if e == nil {
					e, _ = c.Install(id)
				}
				c.Release(e)
			}
			for _, id := range stream {
				get(id)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(stream[i%len(stream)])
			}
		})
	}
}
