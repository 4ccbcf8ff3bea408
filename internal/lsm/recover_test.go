package lsm

import (
	"strings"
	"testing"

	"lsmio/internal/vfs"
)

// A log that Open replays goes with the install of its table: a later
// open must not replay it again, where its table would be the newest L0
// table and shadow every write made since. The middle session has the
// WAL off, as lsmioctl opens a store.
func TestReopenRetiresReplayedLogs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(db *DB) error
		want  string // "" for not found
	}{
		{"delete", func(db *DB) error { return db.Delete([]byte("k")) }, ""},
		{"overwrite", func(db *DB) error { return db.Put([]byte("k"), []byte("v2")) }, "v2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			db := openTestDB(t, fs, nil)
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err := Open("db", CheckpointOptions(fs))
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(db); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			checkValue(t, db, "k", tc.want)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = openTestDB(t, fs, nil)
			defer db.Close()
			checkValue(t, db, "k", tc.want)
		})
	}

	// With the WAL on, a reopen without writes leaves no second table and
	// no second log behind.
	t.Run("reopens", func(t *testing.T) {
		fs := vfs.NewMemFS()
		db := openTestDB(t, fs, nil)
		if err := db.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = openTestDB(t, fs, nil)
		}
		defer db.Close()
		checkValue(t, db, "k", "v")
		var tables, logs []string
		for _, name := range mustList(t, fs, "db") {
			switch {
			case strings.HasSuffix(name, ".sst"):
				tables = append(tables, name)
			case strings.HasSuffix(name, ".log"):
				logs = append(logs, name)
			}
		}
		if len(tables) != 1 || len(logs) > 1 {
			t.Fatalf("after 4 reopens: tables %v, logs %v; want one table and at most one log", tables, logs)
		}
	})
}

// checkValue fails t unless key reads want ("" for not found).
func checkValue(t *testing.T, db *DB, key, want string) {
	t.Helper()
	v, err := db.Get([]byte(key))
	switch {
	case want == "" && err != ErrNotFound:
		t.Fatalf("Get(%s) = %q, %v; want not found", key, v, err)
	case want != "" && (err != nil || string(v) != want):
		t.Fatalf("Get(%s) = %q, %v; want %q", key, v, err, want)
	}
}
