package lsm

import (
	"fmt"
	"hash/crc32"
	"testing"

	"lsmio/internal/vfs"
)

// smallObjSizes are n object sizes stratified over ckpt-smallobj's 4–64
// KiB band, and their sum.
func smallObjSizes(n int) ([]int, int) {
	sizes := make([]int, n)
	total := 0
	for i := range sizes {
		sizes[i] = 4<<10 + i*(60<<10)/n
		total += sizes[i]
	}
	return sizes, total
}

// BenchmarkWALAppendSync is the log layer alone: one group-commit cohort
// of 32 records sized over ckpt-smallobj's object band, appended and
// synced, into a log file that discards its bytes.
func BenchmarkWALAppendSync(b *testing.B) {
	f, err := vfs.NewMemFS().Create("000001.log")
	if err != nil {
		b.Fatal(err)
	}
	w := newWALWriter(discardFile{f})
	sizes, total := smallObjSizes(32)
	record := make([]byte, sizes[len(sizes)-1])
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range sizes {
			if err := w.addRecord(record[:n]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeletePrefix is retention's call alone: one flushed step of
// the paper's configuration retired by DeletePrefix, which removes its
// table in one manifest edit. Filling and flushing the step is not
// timed; the step's bytes are what each call retires.
func BenchmarkDeletePrefix(b *testing.B) {
	for _, c := range []struct {
		name  string
		sizes []int
	}{
		{"llm", []int{8 << 20, 8 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 64 << 10, 64 << 10}},
		{"smallobj", func() []int { s, _ := smallObjSizes(970); return s }()},
	} {
		b.Run(c.name, func(b *testing.B) {
			total, largest := 0, 0
			for _, n := range c.sizes {
				total += n
				largest = max(largest, n)
			}
			db := writePathDB(b, total)
			defer db.Close()
			value := make([]byte, largest)
			crc := make([]uint32, len(c.sizes))
			for j, n := range c.sizes {
				crc[j] = crc32.Checksum(value[:n], crcTable)
			}
			key := make([]byte, 0, 32)
			b.SetBytes(int64(total))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prefix := fmt.Sprintf("ckpt/%08d/", i)
				for j, n := range c.sizes {
					key = fmt.Appendf(key[:0], "%svar%05d", prefix, j)
					if err := db.PutCRC(key, value[:n], crc[j]); err != nil {
						b.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := db.DeletePrefix([]byte(prefix)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
