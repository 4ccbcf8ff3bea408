package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"lsmio/internal/vfs"
)

// ManifestName is the service-layout manifest kept at the root of a
// service directory. Offline tools (lsmioctl stats/tenants) read it to
// find the shard stores and the tenant quota table without talking to
// a live service.
const ManifestName = "SERVICE.json"

// ShardDirName returns the canonical directory name for shard i inside
// a service directory.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// manifestVersion is the layout version New records: 2 places keys by
// route, 1 placed them by a consistent-hash ring.
const manifestVersion = 2

// Manifest describes a service's on-disk layout and tenant table.
type Manifest struct {
	Version int              `json:"version"`
	Shards  int              `json:"shards"`
	Tenants []ManifestTenant `json:"tenants,omitempty"`
	// ShardStatus is the supervisor's per-shard view (state, restart
	// count, breaker) at the time the manifest was written; offline
	// tools render it so an operator can see which shards were
	// struggling when the service last persisted its layout.
	ShardStatus []ShardStatus `json:"shard_status,omitempty"`
}

// ManifestTenant is one tenant's registered admission settings.
type ManifestTenant struct {
	Name        string  `json:"name"`
	Weight      float64 `json:"weight"`
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
}

// Manifest returns the service's current layout description.
func (s *Service) Manifest() Manifest {
	m := Manifest{Version: manifestVersion, Shards: len(s.shards)}
	s.adm.mu.Lock()
	for name, ts := range s.adm.tenants {
		m.Tenants = append(m.Tenants, ManifestTenant{
			Name:        name,
			Weight:      ts.weight(),
			BytesPerSec: ts.cfg.BytesPerSec,
		})
	}
	s.adm.mu.Unlock()
	sort.Slice(m.Tenants, func(i, j int) bool { return m.Tenants[i].Name < m.Tenants[j].Name })
	m.ShardStatus = s.ShardStatuses()
	return m
}

// writeManifest persists the layout when a manifest filesystem is
// configured; a crash between the write and the rename leaves the old
// manifest intact.
func (s *Service) writeManifest() error {
	if s.mfs == nil {
		return nil
	}
	return WriteManifest(s.mfs, s.Manifest())
}

// WriteManifest atomically writes m as fs's SERVICE.json.
func WriteManifest(fs vfs.FS, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := ManifestName + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, ManifestName)
}

// ReadManifest loads fs's SERVICE.json.
func ReadManifest(fs vfs.FS) (Manifest, error) {
	f, err := fs.Open(ManifestName)
	if err != nil {
		return Manifest{}, err
	}
	defer f.Close()
	data, err := vfs.ReadAll(f)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("svc: parse %s: %w", ManifestName, err)
	}
	return m, nil
}

// LayoutError reports a SERVICE.json layout New cannot serve (see
// checkLayout): it would route keys to shards that do not hold them.
type LayoutError struct {
	Version, Shards int // what the manifest records
	Want            int // the shard count New was asked to open
}

func (e *LayoutError) Error() string {
	return fmt.Sprintf("svc: %s records %d shard(s) at layout version %d, not %d at version %d: a service directory keeps its layout for life",
		ManifestName, e.Shards, e.Version, e.Want, manifestVersion)
}

// checkLayout returns a *LayoutError unless SERVICE.json is absent (a
// new directory) or records n shards at manifestVersion; with one shard
// every version puts every key on shard 0.
func checkLayout(fs vfs.FS, n int) error {
	if fs == nil {
		return nil
	}
	m, err := ReadManifest(fs)
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return nil
	case err != nil:
		return err
	case m.Shards != n || (m.Version != manifestVersion && m.Shards > 1):
		return &LayoutError{Version: m.Version, Shards: m.Shards, Want: n}
	}
	return nil
}
