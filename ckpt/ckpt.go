// Package ckpt is a versioned checkpoint/restart layer on top of LSMIO:
// the piece a scientific application actually wants above the raw K/V
// API. It manages named variables per checkpoint step, commits
// atomically (a checkpoint either has a manifest — written last, after
// the write barrier — or is invisible), verifies integrity on read, and
// prunes old checkpoints under a retention policy.
//
//	store := ckpt.New(mgr, ckpt.Options{Keep: 3})
//	c, _ := store.Begin(42)
//	c.Write("temperature", tempBytes)
//	c.Write("pressure", presBytes)
//	c.Commit() // barrier + manifest + retention
//
//	step, _ := store.Latest()
//	state, _ := store.ReadAll(step) // one sequential batch read
package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"lsmio/internal/core"
	"lsmio/internal/lsm"
)

// ErrNoCheckpoint reports that no committed checkpoint exists.
var ErrNoCheckpoint = errors.New("ckpt: no committed checkpoint")

// ErrCorrupt reports a checksum mismatch on read-back.
var ErrCorrupt = errors.New("ckpt: data corruption detected")

// ErrIncomplete reports a committed checkpoint whose manifest references
// data that is missing from the store (half-written or partially lost).
var ErrIncomplete = errors.New("ckpt: checkpoint incomplete")

// Options configures a checkpoint store.
type Options struct {
	// Keep retains only the newest Keep committed checkpoints; older ones
	// are deleted after each Commit. Zero keeps everything.
	Keep int
	// Prefix namespaces the store's keys (default "ckpt").
	Prefix string
}

// Store manages checkpoints inside an LSMIO Manager.
type Store struct {
	mgr  *core.Manager
	keep int
	pfx  string
	m    ckptMetrics
}

// New wraps an LSMIO manager as a checkpoint store.
func New(mgr *core.Manager, opts Options) *Store {
	pfx := opts.Prefix
	if pfx == "" {
		pfx = "ckpt"
	}
	return &Store{mgr: mgr, keep: opts.Keep, pfx: pfx, m: newCkptMetrics(mgr.Obs())}
}

// Manager exposes the underlying LSMIO manager.
func (s *Store) Manager() *core.Manager { return s.mgr }

// manifestVersion is the manifest format Commit writes. Version 1
// records each variable's CRC as CRC-32C (Castagnoli), the checksum the
// engine's table blocks use, so the one pass Write makes over a variable
// serves both (core.Manager.PutCRC). A manifest without a version (0)
// was written before: its CRCs are CRC-32 IEEE, and it is verified as
// such. A version this build does not know is an error, not corruption.
const manifestVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type manifest struct {
	Version int        `json:"version,omitempty"`
	Step    int64      `json:"step"`
	Vars    []varEntry `json:"vars"`
}

type varEntry struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
}

// holds reports whether data is the variable v the manifest records:
// its length, and its CRC of the manifest's kind. crc is data's CRC-32C
// when ok: the engine derived it from the block check that just read
// data (core.Manager.GetCRC), so a version-1 manifest compares it
// without another pass over data. Otherwise holds makes that one pass
// itself, of the manifest's kind: CRC-32 IEEE for version 0.
func (m *manifest) holds(v varEntry, data []byte, crc uint32, ok bool) bool {
	if int64(len(data)) != v.Bytes {
		return false
	}
	switch {
	case m.Version == 0:
		crc = crc32.ChecksumIEEE(data)
	case !ok:
		crc = crc32.Checksum(data, castagnoli)
	}
	return crc == v.CRC
}

func (s *Store) manifestKey(step int64) string {
	return fmt.Sprintf("%s/manifest/%016d", s.pfx, step)
}

func (s *Store) manifestPrefix() string { return s.pfx + "/manifest/" }

func (s *Store) dataKey(step int64, name string) string {
	return fmt.Sprintf("%s/data/%016d/%s", s.pfx, step, name)
}

func (s *Store) dataPrefix(step int64) string {
	return fmt.Sprintf("%s/data/%016d/", s.pfx, step)
}

// digestKey holds the CRC-32 IEEE of the step's manifest blob (decimal
// string). The per-variable CRCs only cover payloads; the digest covers
// the manifest itself, so a damaged manifest that still parses (e.g. a
// truncated Vars list that is valid JSON) cannot silently narrow a
// step. Steps committed before digests existed have no digest key and
// are accepted as legacy.
func (s *Store) digestKey(step int64) string {
	return fmt.Sprintf("%s/digest/%016d", s.pfx, step)
}

// Checkpoint is an in-progress checkpoint; call Commit to publish it.
type Checkpoint struct {
	s         *Store
	step      int64
	vars      []varEntry
	committed bool
}

// Begin starts checkpoint `step`. Steps must be unique; beginning an
// already-committed step fails, and so does a step whose manifest cannot
// be read: writing over it could not be checked.
func (s *Store) Begin(step int64) (*Checkpoint, error) {
	_, err := s.mgr.Get(s.manifestKey(step))
	if err == nil {
		return nil, fmt.Errorf("ckpt: step %d already committed", step)
	}
	if !errors.Is(err, core.ErrNotFound) {
		return nil, classifyCorrupt(step, err)
	}
	return &Checkpoint{s: s, step: step}, nil
}

// Write stores one named variable in the checkpoint. Writing a name
// again replaces its value: the last write wins, as in the store.
//
// Write checksums data once, with CRC-32C: the manifest records that
// CRC, and the engine uses it for the checksum of the table block that
// holds the variable instead of reading the bytes again.
func (c *Checkpoint) Write(name string, data []byte) error {
	if c.committed {
		return fmt.Errorf("ckpt: write after commit")
	}
	if strings.ContainsAny(name, "/") {
		return fmt.Errorf("ckpt: variable name %q must not contain '/'", name)
	}
	crc := crc32.Checksum(data, castagnoli)
	if err := c.s.mgr.PutCRC(c.s.dataKey(c.step, name), data, crc); err != nil {
		return err
	}
	c.vars = append(c.vars, varEntry{Name: name, Bytes: int64(len(data)), CRC: crc})
	return nil
}

// Commit makes the checkpoint durable and visible: write barrier first,
// manifest last (with its own barrier), then retention pruning. A crash
// before the manifest lands leaves the step invisible; Latest and
// ReadAll never observe a partial checkpoint.
func (c *Checkpoint) Commit() error {
	if c.committed {
		return fmt.Errorf("ckpt: double commit")
	}
	if err := c.s.mgr.WriteBarrier(); err != nil {
		return err
	}
	c.vars = lastWrites(c.vars)
	m := manifest{Version: manifestVersion, Step: c.step, Vars: c.vars}
	blob, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := c.s.mgr.Put(c.s.manifestKey(c.step), blob); err != nil {
		return err
	}
	// Manifest digest, same barrier window as the manifest: a crash
	// between the two leaves a manifest without a digest, which reads as
	// a (valid) legacy step.
	digest := strconv.FormatUint(uint64(crc32.ChecksumIEEE(blob)), 10)
	if err := c.s.mgr.Put(c.s.digestKey(c.step), []byte(digest)); err != nil {
		return err
	}
	if err := c.s.mgr.WriteBarrier(); err != nil {
		return err
	}
	c.committed = true
	c.s.m.commits.Inc()
	c.s.m.trace.Emitf("ckpt.commit", "step=%d vars=%d", c.step, len(c.vars))
	return c.s.prune()
}

// Abort discards an uncommitted checkpoint's data with one prefix
// delete, which frees the tables the step's writes filled whole.
func (c *Checkpoint) Abort() error {
	if c.committed {
		return fmt.Errorf("ckpt: abort after commit")
	}
	c.committed = true
	return c.s.mgr.DeletePrefix(c.s.dataPrefix(c.step))
}

// Steps lists committed checkpoint steps in ascending order.
func (s *Store) Steps() ([]int64, error) {
	var steps []int64
	err := s.mgr.ReadBatch(s.manifestPrefix(), func(key string, _ []byte) bool {
		raw := strings.TrimPrefix(key, s.manifestPrefix())
		if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
			steps = append(steps, n)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps, nil
}

// Latest returns the newest committed step that has not been quarantined
// (see Quarantine / RestoreLatest in recover.go).
func (s *Store) Latest() (int64, error) {
	steps, err := s.Steps()
	if err != nil {
		return 0, err
	}
	quarantined, err := s.Quarantined()
	if err != nil {
		return 0, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if _, bad := quarantined[steps[i]]; !bad {
			return steps[i], nil
		}
	}
	return 0, ErrNoCheckpoint
}

// Manifest returns a committed checkpoint's variable inventory.
func (s *Store) Manifest(step int64) ([]string, error) {
	m, err := s.loadManifest(step)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(m.Vars))
	for i, v := range m.Vars {
		names[i] = v.Name
	}
	return names, nil
}

func (s *Store) loadManifest(step int64) (*manifest, error) {
	blob, err := s.mgr.Get(s.manifestKey(step))
	if errors.Is(err, core.ErrNotFound) {
		return nil, fmt.Errorf("%w (step %d)", ErrNoCheckpoint, step)
	}
	if err != nil {
		return nil, err
	}
	// Digest check before parsing: a present-but-mismatched digest marks
	// the manifest itself damaged. A missing digest is a legacy step.
	if want, derr := s.mgr.Get(s.digestKey(step)); derr == nil {
		got := strconv.FormatUint(uint64(crc32.ChecksumIEEE(blob)), 10)
		if got != string(want) {
			return nil, fmt.Errorf("%w: manifest digest mismatch for step %d (store key %s): recorded %s, computed %s",
				ErrCorrupt, step, s.manifestKey(step), want, got)
		}
	} else if !errors.Is(derr, core.ErrNotFound) {
		return nil, derr
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest for step %d (store key %s): %v",
			ErrCorrupt, step, s.manifestKey(step), err)
	}
	if m.Version < 0 || m.Version > manifestVersion {
		return nil, fmt.Errorf("ckpt: manifest for step %d (store key %s) has version %d; this build reads up to %d",
			step, s.manifestKey(step), m.Version, manifestVersion)
	}
	m.Vars = lastWrites(m.Vars)
	return &m, nil
}

// lastWrites keeps only the last entry of each name, at the name's first
// place: a variable written twice in a step holds its last write, in the
// store as in the manifest. Manifests written before version 1 list such
// a variable once per write, so loadManifest applies it too.
func lastWrites(vars []varEntry) []varEntry {
	at := make(map[string]int, len(vars))
	out := vars[:0]
	for _, v := range vars {
		if i, ok := at[v.Name]; ok {
			out[i] = v
			continue
		}
		at[v.Name] = len(out)
		out = append(out, v)
	}
	return out
}

// Read loads one variable from a committed checkpoint, verifying its
// checksum.
func (s *Store) Read(step int64, name string) ([]byte, error) {
	m, err := s.loadManifest(step)
	if err != nil {
		return nil, err
	}
	for _, v := range m.Vars {
		if v.Name != name {
			continue
		}
		data, crc, derived, err := s.mgr.GetCRC(s.dataKey(step, name))
		if errors.Is(err, core.ErrNotFound) {
			return nil, fmt.Errorf("%w: step %d variable %q (store key %s)",
				ErrIncomplete, step, name, s.dataKey(step, name))
		}
		if err != nil {
			return nil, classifyCorrupt(step, err)
		}
		if !m.holds(v, data, crc, derived) {
			return nil, fmt.Errorf("%w: step %d variable %q (store key %s)",
				ErrCorrupt, step, name, s.dataKey(step, name))
		}
		return data, nil
	}
	return nil, fmt.Errorf("ckpt: step %d has no variable %q", step, name)
}

// classifyCorrupt rewrites engine-level corruption under a step's keys
// (damaged SSTable blocks) as ErrCorrupt, so verification, scrubbing and
// restore fallback treat it like a failed payload checksum — quarantine
// the step and move on — instead of a fatal store error.
func classifyCorrupt(step int64, err error) error {
	if err != nil && errors.Is(err, lsm.ErrCorruption) {
		return fmt.Errorf("%w: step %d: %v", ErrCorrupt, step, err)
	}
	return err
}

// ReadAll restores a whole checkpoint with one sequential batch read (the
// §5.1 read path), verifying every checksum.
func (s *Store) ReadAll(step int64) (map[string][]byte, error) {
	m, err := s.loadManifest(step)
	if err != nil {
		return nil, classifyCorrupt(step, err)
	}
	want := make(map[string]varEntry, len(m.Vars))
	for _, v := range m.Vars {
		want[v.Name] = v
	}
	out := make(map[string][]byte, len(want))
	prefix := s.dataPrefix(step)
	err = s.mgr.ReadBatch(prefix, func(key string, value []byte) bool {
		name := strings.TrimPrefix(key, prefix)
		if _, ok := want[name]; ok {
			out[name] = value
		}
		return true
	})
	if err != nil {
		return nil, classifyCorrupt(step, err)
	}
	for name, v := range want {
		data, ok := out[name]
		if !ok {
			return nil, fmt.Errorf("%w: step %d missing variable %q (store key %s)",
				ErrIncomplete, step, name, s.dataKey(step, name))
		}
		if !m.holds(v, data, 0, false) {
			return nil, fmt.Errorf("%w: step %d variable %q (store key %s)",
				ErrCorrupt, step, name, s.dataKey(step, name))
		}
	}
	return out, nil
}

// Size returns the total payload bytes of a committed checkpoint, as
// recorded in its manifest (data only, not key or manifest overhead).
func (s *Store) Size(step int64) (int64, error) {
	m, err := s.loadManifest(step)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, v := range m.Vars {
		total += v.Bytes
	}
	return total, nil
}

// Drop removes a committed checkpoint entirely. The manifest and digest
// deletes are queued first; the prefix delete of the step's data then
// makes them durable in the same manifest edit that frees the step's
// tables whole (a commit barrier ends a step's last table, so no table
// holds keys of two steps). With the WAL off, a crash before that edit
// leaves the step restorable and a crash after it leaves nothing of it;
// no crash leaves a manifest whose data is gone.
func (s *Store) Drop(step int64) error {
	if _, err := s.loadManifest(step); err != nil {
		return err
	}
	if err := s.mgr.Del(s.manifestKey(step)); err != nil {
		return err
	}
	if err := s.mgr.Del(s.digestKey(step)); err != nil {
		return err
	}
	return s.mgr.DeletePrefix(s.dataPrefix(step))
}

// prune enforces the retention policy.
func (s *Store) prune() error {
	if s.keep <= 0 {
		return nil
	}
	steps, err := s.Steps()
	if err != nil {
		return err
	}
	for len(steps) > s.keep {
		if err := s.Drop(steps[0]); err != nil {
			return err
		}
		steps = steps[1:]
	}
	return nil
}
