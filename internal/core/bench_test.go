package core

import (
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"lsmio/internal/lsm"
	"lsmio/internal/vfs"
)

// discardTablesFS is a MemFS whose table files drop what is written to
// them, so a long run measures the manager and not the growth of an
// in-memory file. Tables written to it cannot be read back.
type discardTablesFS struct{ vfs.FS }

type discardFile struct{ vfs.File }

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }

func (fs discardTablesFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err == nil && strings.HasSuffix(name, ".sst") {
		f = discardFile{f}
	}
	return f, err
}

// BenchmarkManagerPutBarrier is one checkpoint step through the manager:
// every object put with its CRC, as ckpt's Write does, then the write
// barrier that makes the step durable. ckpt-llm's step is the paper's
// configuration with a few large tensors, shards and small metadata
// objects, its tables discarded; ckpt-smallobj's is 970 objects over
// 4–64 KiB with the WAL, snappy, the cache and compaction on, over the
// same keys every step so compaction keeps the store to about one step.
func BenchmarkManagerPutBarrier(b *testing.B) {
	smallobj := make([]int, 970)
	for i := range smallobj {
		smallobj[i] = 4<<10 + i*(60<<10)/len(smallobj)
	}
	for _, c := range []struct {
		name  string
		sizes []int
		store StoreOptions
	}{
		{"llm", []int{8 << 20, 8 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 64 << 10, 64 << 10},
			StoreOptions{Backend: BackendRocks, FS: discardTablesFS{vfs.NewMemFS()}, Async: true,
				WriteBufferSize: 32 << 20, BlockSize: 64 << 10}},
		{"smallobj", smallobj,
			StoreOptions{Backend: BackendRocks, FS: vfs.NewMemFS(), Async: true,
				WriteBufferSize: 4 << 20, BlockSize: 4 << 10,
				EnableWAL: true, EnableCompression: true, EnableCache: true, EnableCompaction: true,
				Codec: lsm.CompressionSnappy}},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, err := NewManager("db", ManagerOptions{Store: c.store})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			total, largest := 0, 0
			for _, n := range c.sizes {
				total += n
				largest = max(largest, n)
			}
			value := make([]byte, largest)
			for i := range value {
				value[i] = byte(i % 251) // compressible enough for snappy to work
			}
			table := crc32.MakeTable(crc32.Castagnoli)
			crc := make([]uint32, len(c.sizes))
			keys := make([]string, len(c.sizes))
			for j, n := range c.sizes {
				crc[j] = crc32.Checksum(value[:n], table)
				keys[j] = fmt.Sprintf("ckpt/var%05d", j)
			}
			b.SetBytes(int64(total))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, n := range c.sizes {
					if err := m.PutCRC(keys[j], value[:n], crc[j]); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.WriteBarrier(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
