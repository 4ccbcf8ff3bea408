package main

import (
	"testing"

	"lsmio/internal/bench"
	"lsmio/internal/svc"
	"lsmio/internal/vfs"
)

// TestDirSession runs what `lsmiod -dir` runs: the session flat out on
// the real runtime over a directory, whose SERVICE.json lsmioctl reads.
func TestDirSession(t *testing.T) {
	dir := t.TempDir()
	sess := bench.ServiceSession{
		Shards: 2, Tenants: 2, Steps: 2, Blocks: 4, BlockBytes: 16 << 10, Fair: true,
	}
	res, err := sess.RunDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tenant00", "tenant01"} {
		if got, want := res.Metrics.Counters["svc.tenant."+name+".ops"], int64(sess.Steps*sess.Blocks); got != want {
			t.Errorf("%s: %d ops, want %d", name, got, want)
		}
	}

	fs, err := vfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := svc.ReadManifest(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tenants) != 2 || m.Tenants[0].Name != "tenant00" || m.Tenants[1].Name != "tenant01" {
		t.Errorf("manifest tenants %+v, want tenant00 and tenant01", m.Tenants)
	}
	if m.Shards != 2 || len(m.ShardStatus) != 2 {
		t.Fatalf("manifest lists %d shards with %d statuses, want 2", m.Shards, len(m.ShardStatus))
	}
	for _, sh := range m.ShardStatus {
		if sh.State != "up" {
			t.Errorf("shard %d is %s, want up", sh.Shard, sh.State)
		}
	}

	if rep := newReport("dir", sess, res); len(rep.Tenant) != 2 {
		t.Errorf("report has %d tenant rows, want 2: %+v", len(rep.Tenant), rep.Tenant)
	}

	sess.Noisy = true
	if _, err := sess.RunDir(t.TempDir()); err == nil {
		t.Error("RunDir with a noisy tenant succeeded, want an error")
	}
}
