// Package core implements LSMIO, the paper's contribution: an I/O library
// that routes HPC checkpoint data through an LSM-tree so that writes reach
// the parallel file system as large sequential appends.
//
// The layering follows Figure 3 of the paper:
//
//	K/V API / FStream API / ADIOS2 plugin     (manager.go, fstream.go, plugin
//	        LSMIO Manager + MPI               adapter in package adios2lsmio)
//	            Local Store                    (this file; Table 1)
//	       LSM-tree (RocksDB role)             (internal/lsm)
//
// Two local-store backends mirror the paper's RocksDB and LevelDB
// discussion (§3.1.2): the rocks-style backend disables the write-ahead
// log outright; the level-style backend cannot (LevelDB has no such
// option), so it buffers writes in a WriteBatch and applies them on
// barriers, trading atomicity bookkeeping for fewer WAL hits.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"lsmio/internal/iosched"
	"lsmio/internal/lsm"
	"lsmio/internal/obs"
	"lsmio/internal/rt"
	"lsmio/internal/vfs"
)

// Backend selects the local-store implementation.
type Backend string

// Available backends.
const (
	// BackendRocks is the paper's choice: the engine runs with the WAL
	// disabled (durability comes from the explicit write barrier).
	BackendRocks Backend = "rocks"
	// BackendLevel emulates the LevelDB constraint: the WAL stays on and
	// writes are aggregated in a WriteBatch between barriers.
	BackendLevel Backend = "level"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("lsmio: key not found")

// ErrClosed reports an operation on a store whose connection or handle
// has been released with Close.
var ErrClosed = errors.New("lsmio: store closed")

// Store is the paper's Table 1 interface: the internal K/V surface over
// the LSM-tree that the Manager builds on. A Store is safe for
// concurrent use by multiple goroutines; Append reads and then writes,
// so concurrent writers of one key order themselves.
type Store interface {
	// StartBatch begins write aggregation if the backend needs it.
	StartBatch() error
	// StopBatch ends aggregation and applies buffered writes.
	StopBatch() error
	// Get returns the value for key, always synchronously. The value is
	// the caller's to keep and modify (lsm.DB.Get: copied at most once).
	Get(key string) ([]byte, error)
	// GetCRC is Get that also returns the value's CRC-32C
	// (crc32.Castagnoli) when the engine derived it from the checksum
	// pass that verified the table block the value was just read from
	// (lsm.DB.GetCRC); ok is false otherwise, and always for a value
	// still buffered in memory.
	GetCRC(key string) (value []byte, crc uint32, ok bool, err error)
	// Put writes key; with sync it blocks until durable.
	Put(key string, value []byte, sync bool) error
	// PutCRC is Put without sync for a caller that has checksummed
	// value: crc is its CRC-32C (crc32.Castagnoli), which the engine
	// folds into the checksum of a table block holding the value instead
	// of reading the value again (lsm.Batch.PutCRC). A crc that is not
	// the value's makes the value read back as lsm.ErrCorruption.
	PutCRC(key string, value []byte, crc uint32) error
	// Append extends key's existing value (creating it if absent).
	Append(key string, value []byte, sync bool) error
	// Del removes key.
	Del(key string) error
	// DeletePrefix removes every key with the given prefix. It returns
	// once the deletion, and every write before it, is in synced tables
	// and a synced manifest edit; tables that hold only such keys are
	// freed whole (lsm.DB.DeletePrefix).
	DeletePrefix(prefix string) error
	// WriteBarrier flushes all buffered writes to disk and, when sync,
	// blocks until they are on stable storage.
	WriteBarrier(sync bool) error
	// Scan visits every live key with the given prefix in key order,
	// reading the tree sequentially — the batch-read path the paper's
	// §5.1 proposes to fix the synchronous point-lookup read penalty.
	// Returning false from fn stops the scan early. Each value is fn's
	// to keep and modify (lsm.Iterator.OwnValue: copied at most once).
	Scan(prefix string, fn func(key string, value []byte) bool) error
	// Close releases the store. Buffered writes are flushed first.
	Close() error
}

// StoreOptions configures a local store.
type StoreOptions struct {
	// Backend selects rocks- or level-style behaviour (default rocks).
	Backend Backend
	// FS is the filesystem holding the store directory.
	FS vfs.FS
	// Runtime is what the engine runs on (rt.Real() when nil; inside
	// the simulator, the stack's rt.Sim). ManagerOptions.Runtime is
	// forwarded here, so a caller building a Manager names it once.
	Runtime rt.Runtime
	// WriteBufferSize is the memtable size (the paper matches ADIOS2's
	// 32 MB BufferChunkSize).
	WriteBufferSize int
	// BlockSize is the SSTable block size.
	BlockSize int
	// Async lets writes return before data reaches disk; the write
	// barrier establishes durability (the paper's asynchronous option).
	Async bool
	// UseMMap coalesces table writes into mmap-style large segments.
	UseMMap bool
	// EnableWAL, EnableCompression, EnableCache and EnableCompaction
	// re-enable engine features the paper turns off; all default false,
	// matching the paper's checkpoint configuration.
	EnableWAL         bool
	EnableCompression bool
	EnableCache       bool
	EnableCompaction  bool
	// Codec names the block codec used when compression is enabled.
	// Snappy (the default) is the only one; OpenStore refuses any other
	// name.
	Codec lsm.CompressionCodec
	// Obs is the metrics/trace registry handed to the LSM engine (its
	// instruments live under the `lsm.` prefix there). Nil lets the
	// engine create a private registry.
	Obs *obs.Registry
	// IOSched is the shared bandwidth scheduler handed to the LSM
	// engine: WAL appends draw Foreground tokens and table builds draw
	// Flush/Compaction tokens from it. One instance is shared across
	// every store (and the burst tier and PFS scrubber) in a
	// deployment. Nil disables scheduling.
	IOSched *iosched.Scheduler
}

func (o StoreOptions) engineOptions() lsm.Options {
	eo := lsm.CheckpointOptions(o.FS)
	eo.Runtime = o.Runtime // nil: lsm.Open defaults to rt.Real()
	if o.WriteBufferSize > 0 {
		eo.WriteBufferSize = o.WriteBufferSize
	}
	if o.BlockSize > 0 {
		eo.BlockSize = o.BlockSize
	}
	eo.AsyncFlush = o.Async
	eo.UseMMap = o.UseMMap
	eo.DisableWAL = !o.EnableWAL
	eo.DisableCompression = !o.EnableCompression
	eo.DisableCache = !o.EnableCache
	eo.DisableCompaction = !o.EnableCompaction
	if o.Codec != "" {
		eo.Compression = o.Codec
	}
	eo.Obs = o.Obs
	eo.IOSched = o.IOSched
	return eo
}

// OpenStore opens a local store in dir.
func OpenStore(dir string, opts StoreOptions) (Store, error) {
	if opts.FS == nil {
		return nil, fmt.Errorf("lsmio: StoreOptions.FS is required")
	}
	switch opts.Backend {
	case "", BackendRocks:
		eo := opts.engineOptions()
		db, err := lsm.Open(dir, eo)
		if err != nil {
			return nil, err
		}
		return &rocksStore{db: db, fs: opts.FS}, nil
	case BackendLevel:
		eo := opts.engineOptions()
		eo.DisableWAL = false // LevelDB cannot turn the WAL off
		db, err := lsm.Open(dir, eo)
		if err != nil {
			return nil, err
		}
		return &levelStore{
			db:       db,
			fs:       opts.FS,
			batch:    lsm.NewBatch(),
			batchMax: eo.WriteBufferSize,
			pending:  make(map[string]batchValue),
		}, nil
	default:
		return nil, fmt.Errorf("lsmio: unknown backend %q", opts.Backend)
	}
}

// barrierFS is the optional hook a filesystem (the simulated PFS) exposes
// to let the write barrier wait for asynchronously completing device I/O.
type barrierFS interface {
	Barrier() error
}

func fsBarrier(fs vfs.FS) error {
	if b, ok := fs.(barrierFS); ok {
		return b.Barrier()
	}
	return nil
}

// rocksStore is the paper's configuration: no WAL, direct engine writes.
type rocksStore struct {
	db *lsm.DB
	fs vfs.FS
}

func (s *rocksStore) StartBatch() error { return nil } // engine buffers in the memtable
func (s *rocksStore) StopBatch() error  { return nil }

func (s *rocksStore) Get(key string) ([]byte, error) {
	v, err := s.db.Get([]byte(key))
	return v, storeErr(err)
}

func (s *rocksStore) GetCRC(key string) ([]byte, uint32, bool, error) {
	v, crc, ok, err := s.db.GetCRC([]byte(key))
	return v, crc, ok, storeErr(err)
}

// storeErr reports the engine's missing key as the store's.
func storeErr(err error) error {
	if errors.Is(err, lsm.ErrNotFound) {
		return ErrNotFound
	}
	return err
}

func (s *rocksStore) Put(key string, value []byte, sync bool) error {
	if err := s.db.Put([]byte(key), value); err != nil {
		return err
	}
	if sync {
		return s.WriteBarrier(true)
	}
	return nil
}

func (s *rocksStore) PutCRC(key string, value []byte, crc uint32) error {
	return s.db.PutCRC([]byte(key), value, crc)
}

func (s *rocksStore) Append(key string, value []byte, sync bool) error {
	old, err := s.Get(key)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	combined := make([]byte, 0, len(old)+len(value))
	combined = append(combined, old...)
	combined = append(combined, value...)
	return s.Put(key, combined, sync)
}

func (s *rocksStore) Del(key string) error { return s.db.Delete([]byte(key)) }

func (s *rocksStore) DeletePrefix(prefix string) error { return s.db.DeletePrefix([]byte(prefix)) }

func (s *rocksStore) Scan(prefix string, fn func(key string, value []byte) bool) error {
	return scanDB(s.db, prefix, fn)
}

// scanDB streams keys with a prefix from a range-bounded engine iterator,
// so only tables overlapping the prefix are opened.
func scanDB(db *lsm.DB, prefix string, fn func(key string, value []byte) bool) error {
	var lower, upper []byte
	if prefix != "" {
		lower = []byte(prefix)
		upper = lsm.PrefixSuccessor([]byte(prefix))
	}
	it, err := db.NewRangeIterator(lower, upper)
	if err != nil {
		return err
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		key := string(it.Key())
		if !strings.HasPrefix(key, prefix) {
			break
		}
		if !fn(key, it.OwnValue()) {
			break
		}
	}
	// A corrupt block mid-scan silently terminates iteration; Close is
	// where the engine reports it. Swallowing that error would make a
	// truncated scan look like a complete one.
	return it.Close()
}

func (s *rocksStore) WriteBarrier(sync bool) error {
	if err := s.db.Flush(); err != nil {
		return err
	}
	if sync {
		return fsBarrier(s.fs)
	}
	return nil
}

func (s *rocksStore) Close() error {
	if err := s.WriteBarrier(true); err != nil {
		return err
	}
	return s.db.Close()
}

// levelStore emulates LevelDB: the WAL cannot be disabled, so writes are
// aggregated in a WriteBatch (which the WAL then sees as one record per
// barrier instead of one per put).
type levelStore struct {
	db *lsm.DB
	fs vfs.FS
	// mu guards the batch window: batching, batch, pending and deleted.
	// It is held while the batch is applied, so a write never lands in
	// a batch the engine is reading.
	mu       sync.Mutex
	batching bool
	batch    *lsm.Batch
	batchMax int
	// pending locates, inside the unapplied batch, the newest value put
	// for each key, so Get/Append observe writes still sitting there
	// (read-your-writes inside a batch window) without a second copy.
	pending map[string]batchValue
	deleted map[string]bool
}

// batchValue is a value's place in the pending batch's encoding.
type batchValue struct{ off, n int }

func (s *levelStore) StartBatch() error {
	s.mu.Lock()
	s.batching = true
	s.mu.Unlock()
	return nil
}

func (s *levelStore) StopBatch() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batching = false
	return s.applyBatchLocked()
}

// applyBatch applies the pending batch, so the engine holds every write
// made before it.
func (s *levelStore) applyBatch() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyBatchLocked()
}

func (s *levelStore) applyBatchLocked() error {
	if s.batch.Count() == 0 {
		return nil
	}
	err := s.db.Apply(s.batch) // leaves the batch empty, also on error
	clear(s.pending)
	s.deleted = nil
	return err
}

// Get looks in the pending batch first and, on a miss, in the engine,
// unlocked: a write made before the Get began is in the batch or already
// applied, and one racing it is not ordered before it.
func (s *levelStore) Get(key string) ([]byte, error) {
	if v, ok, err := s.getPending(key); ok {
		return v, err
	}
	v, err := s.db.Get([]byte(key))
	return v, storeErr(err)
}

func (s *levelStore) GetCRC(key string) ([]byte, uint32, bool, error) {
	if v, ok, err := s.getPending(key); ok {
		return v, 0, false, err
	}
	v, crc, ok, err := s.db.GetCRC([]byte(key))
	return v, crc, ok, storeErr(err)
}

// getPending answers a get from the writes still in the pending batch,
// if it holds key's newest: ok reports whether it does.
func (s *levelStore) getPending(key string) (v []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted != nil && s.deleted[key] {
		return nil, true, ErrNotFound
	}
	if p, ok := s.pending[key]; ok {
		return append([]byte(nil), s.batch.Bytes(p.off, p.n)...), true, nil
	}
	return nil, false, nil
}

func (s *levelStore) Put(key string, value []byte, sync bool) error {
	s.mu.Lock()
	s.batch.Put([]byte(key), value)
	err := s.queuedLocked(key, len(value))
	s.mu.Unlock()
	if err != nil || !sync {
		return err
	}
	return s.WriteBarrier(true)
}

func (s *levelStore) PutCRC(key string, value []byte, crc uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batch.PutCRC([]byte(key), value, crc)
	return s.queuedLocked(key, len(value))
}

// queuedLocked ends a put of an n-byte value to key, now the batch's
// last entry: it records where the value lies and applies the batch
// when it is due.
func (s *levelStore) queuedLocked(key string, n int) error {
	s.pending[key] = batchValue{off: s.batch.Size() - n, n: n}
	if s.deleted != nil {
		delete(s.deleted, key)
	}
	if !s.batching || s.batch.Size() >= s.batchMax {
		return s.applyBatchLocked()
	}
	return nil
}

func (s *levelStore) Append(key string, value []byte, sync bool) error {
	old, err := s.Get(key)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	combined := make([]byte, 0, len(old)+len(value))
	combined = append(combined, old...)
	combined = append(combined, value...)
	return s.Put(key, combined, sync)
}

func (s *levelStore) Del(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batch.Delete([]byte(key))
	delete(s.pending, key)
	if s.deleted == nil {
		s.deleted = make(map[string]bool)
	}
	s.deleted[key] = true
	if !s.batching {
		return s.applyBatchLocked()
	}
	return nil
}

// DeletePrefix applies the pending batch first, so the deletion also
// covers keys still buffered there and makes them durable with it.
func (s *levelStore) DeletePrefix(prefix string) error {
	if err := s.applyBatch(); err != nil {
		return err
	}
	return s.db.DeletePrefix([]byte(prefix))
}

func (s *levelStore) Scan(prefix string, fn func(key string, value []byte) bool) error {
	// Apply the pending batch first so the scan sees this store's own
	// buffered writes.
	if err := s.applyBatch(); err != nil {
		return err
	}
	return scanDB(s.db, prefix, fn)
}

func (s *levelStore) WriteBarrier(sync bool) error {
	if err := s.applyBatch(); err != nil {
		return err
	}
	if err := s.db.Flush(); err != nil {
		return err
	}
	if sync {
		return fsBarrier(s.fs)
	}
	return nil
}

func (s *levelStore) Close() error {
	if err := s.WriteBarrier(true); err != nil {
		return err
	}
	return s.db.Close()
}
