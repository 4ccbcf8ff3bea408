// Package lsmio is an I/O library for HPC checkpointing that routes
// scientific data — not just metadata — through a log-structured merge
// tree, so that checkpoint writes reach a parallel file system as large
// sequential appends. It is a from-scratch Go implementation of LSMIO
// (Bulut & Wright, "Optimizing Write Performance for Checkpointing to
// Parallel File Systems Using LSM-Trees", SC-W 2023), including every
// subsystem the paper builds on: the LSM-tree storage engine itself (in
// the role of RocksDB), the three public interfaces (K/V Manager,
// IOStream-like FStream, and an ADIOS2 storage plugin), and a simulated
// Lustre cluster + IOR benchmark that regenerate the paper's evaluation
// figures.
//
// # Quick start
//
//	fs, _ := lsmio.NewOSFS("/tmp/ckpt")
//	mgr, _ := lsmio.NewManager("store", lsmio.ManagerOptions{
//		Store: lsmio.StoreOptions{FS: fs},
//	})
//	defer mgr.Close()
//	mgr.Put("state/rank0/step42", payload)
//	mgr.WriteBarrier() // everything durable when this returns
//
// The three interfaces share one store: the K/V API (Manager), the
// FStream API (NewFStreamSystem), and — for ADIOS2-style applications —
// the plugin registered by RegisterADIOS2Plugin, selected purely through
// configuration.
//
// Packages under internal/ hold the implementation: internal/lsm (the
// storage engine), internal/core (manager, stores, fstream),
// internal/pfs + internal/sim (the simulated Lustre cluster), and
// internal/ior + internal/bench (the paper's evaluation).
package lsmio

import (
	"lsmio/internal/core"
	"lsmio/internal/lsm"
	"lsmio/internal/lsmioplugin"
	"lsmio/internal/obs"
	"lsmio/internal/vfs"
)

// Re-exported interfaces and types. These are aliases, so values flow
// freely between this package and the internal implementation.
type (
	// FS is the filesystem abstraction all LSMIO I/O goes through.
	FS = vfs.FS
	// File is an open file on an FS.
	File = vfs.File

	// Store is the local K/V store over the LSM-tree (paper Table 1).
	Store = core.Store
	// StoreOptions configures a Store.
	StoreOptions = core.StoreOptions
	// Backend selects the rocks-style or level-style local store.
	Backend = core.Backend

	// Manager is the external K/V API with MPI integration and
	// performance counters (paper Table 2).
	Manager = core.Manager
	// ManagerOptions configures a Manager.
	ManagerOptions = core.ManagerOptions

	// FStream is the C++ IOStream-like API (paper Table 3).
	FStream = core.FStream
	// FStreamSystem owns the store behind a set of FStreams.
	FStreamSystem = core.FStreamSystem
	// OpenMode selects FStream open behaviour.
	OpenMode = core.OpenMode

	// EngineOptions exposes the LSM engine's full option set for direct
	// engine use.
	EngineOptions = lsm.Options
	// DB is the underlying LSM-tree database, usable directly as a
	// general-purpose embedded store.
	DB = lsm.DB
	// Batch collects writes applied atomically to a DB.
	Batch = lsm.Batch
	// Iterator walks a DB snapshot in key order.
	Iterator = lsm.Iterator

	// MetricsRegistry is the unified metrics/trace registry every layer
	// records into (internal/obs). A Manager's registry covers the
	// `core.*` session counters and the engine's `lsm.*` statistics.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's
	// instruments, with Delta/Merge/Tree/WriteTable views.
	MetricsSnapshot = obs.Snapshot
	// TraceEvent is one structured event from a registry's bounded
	// trace ring (flushes, compactions, stalls, hedges, drains...).
	TraceEvent = obs.Event
)

// CompressionCodec names a block-compression algorithm for the engine.
type CompressionCodec = lsm.CompressionCodec

// Block codecs (used when compression is enabled; the paper's checkpoint
// configuration disables compression entirely).
const (
	// CompressionSnappy is the RocksDB-default codec (from-scratch
	// implementation in internal/snappy).
	CompressionSnappy = lsm.CompressionSnappy
)

// Backend choices (paper §3.1.2).
const (
	// BackendRocks disables the write-ahead log outright (the paper's
	// configuration; durability via the write barrier).
	BackendRocks = core.BackendRocks
	// BackendLevel keeps the WAL on and aggregates writes in a batch,
	// emulating the LevelDB constraint.
	BackendLevel = core.BackendLevel
)

// FStream open modes.
const (
	ModeRead      = core.ModeRead
	ModeWrite     = core.ModeWrite
	ModeReadWrite = core.ModeReadWrite
)

// ErrNotFound reports a missing key.
var ErrNotFound = core.ErrNotFound

// NewOSFS returns an FS rooted at a directory of the real filesystem.
func NewOSFS(dir string) (FS, error) { return vfs.NewOSFS(dir) }

// NewMemFS returns an in-memory FS, convenient for tests.
func NewMemFS() FS { return vfs.NewMemFS() }

// OpenStore opens a local store in dir (paper Table 1 interface).
func OpenStore(dir string, opts StoreOptions) (Store, error) {
	return core.OpenStore(dir, opts)
}

// NewManager opens a Manager over a local store in dir.
func NewManager(dir string, opts ManagerOptions) (*Manager, error) {
	return core.NewManager(dir, opts)
}

// GetManager is the factory method: one shared Manager per directory.
func GetManager(dir string, opts ManagerOptions) (*Manager, error) {
	return core.GetManager(dir, opts)
}

// ReleaseManager closes and unregisters a factory-created Manager.
func ReleaseManager(dir string) error { return core.ReleaseManager(dir) }

// NewFStreamSystem wraps a Manager with the FStream API.
func NewFStreamSystem(mgr *Manager) *FStreamSystem {
	return core.NewFStreamSystem(mgr)
}

// InitializeFStreams opens an FStream system over a fresh Manager
// (Table 3's static initialize()).
func InitializeFStreams(dir string, opts ManagerOptions) (*FStreamSystem, error) {
	return core.InitializeFStreams(dir, opts)
}

// OpenDB opens the LSM engine directly with full engine options.
func OpenDB(dir string, opts EngineOptions) (*DB, error) {
	return lsm.Open(dir, opts)
}

// DefaultEngineOptions returns LevelDB/RocksDB-like engine defaults.
func DefaultEngineOptions(fs FS) EngineOptions { return lsm.DefaultOptions(fs) }

// CheckpointEngineOptions returns the paper's checkpoint configuration:
// WAL, compression, cache and compaction disabled, asynchronous flushing,
// 32 MB write buffer (§3.1.1).
func CheckpointEngineOptions(fs FS) EngineOptions { return lsm.CheckpointOptions(fs) }

// NewBatch returns an empty write batch. Put and Delete copy their
// arguments into the batch, so the caller's slices are its own again as
// soon as they return; DB.Apply takes the batch's bytes for the memtable
// and leaves the batch empty and reusable.
func NewBatch() *Batch { return lsm.NewBatch() }

// RepairSummary reports what RepairDB salvaged.
type RepairSummary = lsm.RepairSummary

// RepairDB rebuilds a database whose manifest or CURRENT file was lost or
// corrupted, from the surviving table and log files (checksums verified;
// unreadable files skipped and reported).
func RepairDB(dir string, opts EngineOptions) (RepairSummary, error) {
	return lsm.Repair(dir, opts)
}

// RegisterADIOS2Plugin installs LSMIO as an ADIOS2 storage plugin under
// the name "lsmio" (paper §3.1.7). ADIOS2-style applications then select
// it with engine type "plugin" and parameter PluginName=lsmio — through
// code or XML configuration — with no other changes.
func RegisterADIOS2Plugin() { lsmioplugin.Register() }

// ADIOS2PluginName is the registered plugin name.
const ADIOS2PluginName = lsmioplugin.PluginName
