package lsm

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"lsmio/internal/vfs"
)

const numLevels = 7

// fileMeta describes one live table file.
type fileMeta struct {
	num      uint64
	size     int64
	smallest internalKey
	largest  internalKey
	// reclaim marks an L0 table a flush wrote mostly of tombstones: it
	// makes L0 due for compaction whatever its table count. It lives in
	// memory only; the manifest never records it.
	reclaim bool
}

// overlaps reports whether the file's key range intersects [lo, hi]
// (user-key bounds; nil means unbounded).
func (f *fileMeta) overlaps(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(f.smallest.userKey(), hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(f.largest.userKey(), lo) < 0 {
		return false
	}
	return true
}

// version is an immutable snapshot of the table-file tree. Level 0 files
// may overlap and are ordered newest first; deeper levels are sorted by
// smallest key and disjoint.
type version struct {
	levels [numLevels][]*fileMeta
	// refs counts readers (DB.refCurrentLocked). The version set holds no
	// reference of its own: the current version's tables are live by
	// being current, and a superseded one lives only as long as its
	// readers.
	refs int
}

func (v *version) clone() *version {
	nv := &version{}
	for l := range v.levels {
		nv.levels[l] = append([]*fileMeta(nil), v.levels[l]...)
	}
	return nv
}

// numFiles returns the total number of table files.
func (v *version) numFiles() int {
	n := 0
	for _, lvl := range v.levels {
		n += len(lvl)
	}
	return n
}

// levelBytes returns the cumulative file size of a level.
func (v *version) levelBytes(level int) int64 {
	var n int64
	for _, f := range v.levels[level] {
		n += f.size
	}
	return n
}

// filesForKey returns the tables possibly containing userKey, newest first.
func (v *version) filesForKey(userKey []byte) []*fileMeta {
	var out []*fileMeta
	for _, f := range v.levels[0] {
		if f.overlaps(userKey, userKey) {
			out = append(out, f)
		}
	}
	for l := 1; l < numLevels; l++ {
		files := v.levels[l]
		i := sort.Search(len(files), func(i int) bool {
			return bytes.Compare(files[i].largest.userKey(), userKey) >= 0
		})
		if i < len(files) && files[i].overlaps(userKey, userKey) {
			out = append(out, files[i])
		}
	}
	return out
}

// overlapping returns all files on a level intersecting [lo, hi].
func (v *version) overlapping(level int, lo, hi []byte) []*fileMeta {
	var out []*fileMeta
	for _, f := range v.levels[level] {
		if f.overlaps(lo, hi) {
			out = append(out, f)
		}
	}
	return out
}

// versionEdit is one manifest record: the delta between two versions.
// It is stored as JSON inside WAL-framed manifest records.
type versionEdit struct {
	Comparator  string        `json:"comparator,omitempty"`
	LogNum      *uint64       `json:"log_num,omitempty"`
	NextFileNum *uint64       `json:"next_file_num,omitempty"`
	LastSeq     *uint64       `json:"last_seq,omitempty"`
	Added       []addedFile   `json:"added,omitempty"`
	Deleted     []deletedFile `json:"deleted,omitempty"`
}

type addedFile struct {
	Level    int    `json:"level"`
	Num      uint64 `json:"num"`
	Size     int64  `json:"size"`
	Smallest string `json:"smallest"` // hex internal key
	Largest  string `json:"largest"`
}

type deletedFile struct {
	Level int    `json:"level"`
	Num   uint64 `json:"num"`
}

// versionSet owns the current version, the manifest, and the file-number
// and sequence counters. All mutation happens with the DB lock held.
type versionSet struct {
	fs           vfs.FS
	dir          string
	current      *version
	manifest     *walWriter
	manifestFile vfs.File
	manifestNum  uint64 // the manifest CURRENT names

	nextFileNum uint64
	logNum      uint64 // WAL file in use; older logs are obsolete
	lastSeq     seqNum

	// compactPointer remembers where the last size compaction stopped on
	// each level, for round-robin file selection.
	compactPointer [numLevels]internalKey

	// claims tracks the in-progress input sets of running compactions, so
	// the scheduler can admit only disjoint work (LevelDB keeps the
	// analogous state in Compaction/compact_pointer_; with one background
	// job the set never holds more than one entry).
	claims []*compactionClaim
}

// compactionClaim is one running compaction's reservation: the table
// files it consumes and the user-key span of its inputs+overlaps on the
// (input, output) level pair. While claimed, no other compaction may use
// any of the files, or overlap the span on either affected level — file
// disjointness keeps version edits exact, span disjointness keeps output
// key ranges on the shared output level non-overlapping.
type compactionClaim struct {
	level  int // input level; outputs land on level+1
	files  map[uint64]bool
	lo, hi []byte // inclusive user-key span of all claimed files
}

// touchesLevel reports whether the claim reads or writes the level.
func (c *compactionClaim) touchesLevel(level int) bool {
	return c.level == level || c.level+1 == level
}

// claimCompaction reserves files for a compaction at level. Caller must
// hold the DB lock and have verified admissibility first.
func (vs *versionSet) claimCompaction(level int, files []*fileMeta) *compactionClaim {
	lo, hi := keyRange(files)
	c := &compactionClaim{
		level: level,
		files: make(map[uint64]bool, len(files)),
		lo:    append([]byte(nil), lo...),
		hi:    append([]byte(nil), hi...),
	}
	for _, f := range files {
		c.files[f.num] = true
	}
	vs.claims = append(vs.claims, c)
	return c
}

// releaseCompaction drops a reservation (on completion or failure).
func (vs *versionSet) releaseCompaction(c *compactionClaim) {
	for i, o := range vs.claims {
		if o == c {
			vs.claims = append(vs.claims[:i], vs.claims[i+1:]...)
			return
		}
	}
}

// fileClaimed reports whether any running compaction uses table num.
func (vs *versionSet) fileClaimed(num uint64) bool {
	for _, c := range vs.claims {
		if c.files[num] {
			return true
		}
	}
	return false
}

// rangeClaimed reports whether [lo, hi] intersects the span of a running
// compaction that touches level.
func (vs *versionSet) rangeClaimed(level int, lo, hi []byte) bool {
	for _, c := range vs.claims {
		if !c.touchesLevel(level) {
			continue
		}
		if hi != nil && c.lo != nil && bytes.Compare(hi, c.lo) < 0 {
			continue
		}
		if lo != nil && c.hi != nil && bytes.Compare(lo, c.hi) > 0 {
			continue
		}
		return true
	}
	return false
}

func fileName(dir, suffix string, num uint64) string {
	return fmt.Sprintf("%s/%06d.%s", dir, num, suffix)
}

func tableFileName(dir string, num uint64) string { return fileName(dir, "sst", num) }
func logFileName(dir string, num uint64) string   { return fileName(dir, "log", num) }
func manifestFileName(dir string, num uint64) string {
	return fmt.Sprintf("%s/MANIFEST-%06d", dir, num)
}
func currentFileName(dir string) string { return dir + "/CURRENT" }

// fileKind is what parseFileName makes of a directory entry.
type fileKind int

const (
	fileOther fileKind = iota
	fileTable
	fileLog
	fileManifest
)

// parseFileName returns the kind and number of a database file's name
// (000012.sst, 000012.log, MANIFEST-000012); fileOther for any other name.
func parseFileName(name string) (fileKind, uint64) {
	kind, digits := fileOther, ""
	switch {
	case strings.HasSuffix(name, ".sst"):
		kind, digits = fileTable, strings.TrimSuffix(name, ".sst")
	case strings.HasSuffix(name, ".log"):
		kind, digits = fileLog, strings.TrimSuffix(name, ".log")
	case strings.HasPrefix(name, "MANIFEST-"):
		kind, digits = fileManifest, strings.TrimPrefix(name, "MANIFEST-")
	}
	num, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return fileOther, 0
	}
	return kind, num
}

func newVersionSet(fs vfs.FS, dir string) *versionSet {
	return &versionSet{
		fs:          fs,
		dir:         dir,
		current:     &version{},
		nextFileNum: 2, // 1 is reserved for the first manifest
	}
}

// newFileNum allocates a fresh file number.
func (vs *versionSet) newFileNum() uint64 {
	n := vs.nextFileNum
	vs.nextFileNum++
	return n
}

// apply produces the version after edit and makes it current. The caller
// then persists the edit with logEdit.
func (vs *versionSet) apply(edit *versionEdit) (*version, error) {
	nv := vs.current.clone()
	for _, d := range edit.Deleted {
		files := nv.levels[d.Level]
		kept := files[:0]
		for _, f := range files {
			if f.num != d.Num {
				kept = append(kept, f)
			}
		}
		nv.levels[d.Level] = kept
	}
	for _, a := range edit.Added {
		sm, err := hex.DecodeString(a.Smallest)
		if err != nil {
			return nil, fmt.Errorf("lsm: manifest: bad smallest key: %w", err)
		}
		lg, err := hex.DecodeString(a.Largest)
		if err != nil {
			return nil, fmt.Errorf("lsm: manifest: bad largest key: %w", err)
		}
		fm := &fileMeta{num: a.Num, size: a.Size, smallest: sm, largest: lg}
		if a.Level == 0 {
			// Newest first: new files prepend.
			nv.levels[0] = append([]*fileMeta{fm}, nv.levels[0]...)
		} else {
			files := append(nv.levels[a.Level], fm)
			sort.Slice(files, func(i, j int) bool {
				return compareIKeys(files[i].smallest, files[j].smallest) < 0
			})
			nv.levels[a.Level] = files
		}
	}
	if edit.LogNum != nil {
		vs.logNum = *edit.LogNum
	}
	if edit.NextFileNum != nil && *edit.NextFileNum > vs.nextFileNum {
		vs.nextFileNum = *edit.NextFileNum
	}
	if edit.LastSeq != nil && seqNum(*edit.LastSeq) > vs.lastSeq {
		vs.lastSeq = seqNum(*edit.LastSeq)
	}
	vs.current = nv
	return nv, nil
}

// logEdit persists an edit to the manifest.
func (vs *versionSet) logEdit(edit *versionEdit) error {
	data, err := json.Marshal(edit)
	if err != nil {
		return err
	}
	if err := vs.manifest.addRecord(data); err != nil {
		return err
	}
	return vs.manifest.sync()
}

// writeManifest starts manifest num with edit as its first record and
// points CURRENT at it: CURRENT.tmp is written, synced and renamed over
// CURRENT, so a crash leaves CURRENT naming the old manifest or the new
// one. It is the one place a manifest begins and CURRENT switches.
func (vs *versionSet) writeManifest(num uint64, edit *versionEdit) error {
	f, err := vs.fs.Create(manifestFileName(vs.dir, num))
	if err != nil {
		return err
	}
	vs.manifestFile = f
	vs.manifest = newWALWriter(f)
	if err := vs.logEdit(edit); err != nil {
		return err
	}
	tmp := vs.dir + "/CURRENT.tmp"
	cf, err := vs.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(cf, "MANIFEST-%06d\n", num); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Sync(); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}
	if err := vs.fs.Rename(tmp, currentFileName(vs.dir)); err != nil {
		return err
	}
	vs.manifestNum = num
	return nil
}

// recover loads the version state from CURRENT + manifest. It returns the
// WAL number in effect so the DB can replay newer logs.
func (vs *versionSet) recover() (logNum uint64, err error) {
	cf, err := vs.fs.Open(currentFileName(vs.dir))
	if err != nil {
		return 0, err
	}
	nameBytes, err := vfs.ReadAll(cf)
	cf.Close()
	if err != nil {
		return 0, err
	}
	manifestName := strings.TrimSpace(string(nameBytes))
	if manifestName == "" {
		return 0, fmt.Errorf("lsm: CURRENT is empty")
	}
	mf, err := vs.fs.Open(vs.dir + "/" + manifestName)
	if err != nil {
		return 0, err
	}
	reader, err := newWALReader(mf)
	if err != nil {
		mf.Close()
		return 0, err
	}
	for first := true; ; first = false {
		rec, err := reader.next()
		if err == io.EOF && first {
			// Every manifest starts with the edit written before CURRENT
			// names it; without that edit the manifest is torn, and
			// replaying nothing would open the store as empty.
			mf.Close()
			return 0, fmt.Errorf("lsm: manifest %s has no complete first record: %w; run lsmioctl repair",
				manifestName, ErrCorruption)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			mf.Close()
			return 0, err
		}
		var edit versionEdit
		if err := json.Unmarshal(rec, &edit); err != nil {
			mf.Close()
			return 0, fmt.Errorf("lsm: manifest: %w", err)
		}
		if first && edit.NextFileNum == nil {
			mf.Close()
			return 0, fmt.Errorf("lsm: manifest %s does not start with a snapshot edit: %w; run lsmioctl repair",
				manifestName, ErrCorruption)
		}
		if _, err := vs.apply(&edit); err != nil {
			mf.Close()
			return 0, err
		}
	}
	if err := mf.Close(); err != nil {
		return 0, err
	}
	// Continue appending to a fresh manifest that snapshots current state,
	// so old manifests never grow unboundedly across reopens.
	if err := vs.writeManifest(vs.newFileNum(), vs.snapshotEdit()); err != nil {
		return 0, err
	}
	return vs.logNum, nil
}

// snapshotEdit encodes the entire current state as a single edit.
func (vs *versionSet) snapshotEdit() *versionEdit {
	next := vs.nextFileNum
	last := uint64(vs.lastSeq)
	log := vs.logNum
	edit := &versionEdit{
		Comparator:  "lsmio.bytewise",
		NextFileNum: &next,
		LastSeq:     &last,
		LogNum:      &log,
	}
	for l := 0; l < numLevels; l++ {
		// Preserve L0's newest-first order by appending in reverse so that
		// replay (which prepends) reconstructs it.
		files := vs.current.levels[l]
		for i := len(files) - 1; i >= 0; i-- {
			f := files[i]
			edit.Added = append(edit.Added, addedFile{
				Level:    l,
				Num:      f.num,
				Size:     f.size,
				Smallest: hex.EncodeToString(f.smallest),
				Largest:  hex.EncodeToString(f.largest),
			})
		}
	}
	return edit
}

// addedFileFromMeta is a helper for building edits.
func addedFileFromMeta(level int, m tableMeta) addedFile {
	return addedFile{
		Level:    level,
		Num:      m.fileNum,
		Size:     m.size,
		Smallest: hex.EncodeToString(m.smallest),
		Largest:  hex.EncodeToString(m.largest),
	}
}

// liveFileNums returns the set of table files referenced by the current
// version.
func (vs *versionSet) liveFileNums() map[uint64]bool {
	live := make(map[uint64]bool)
	for _, lvl := range vs.current.levels {
		for _, f := range lvl {
			live[f.num] = true
		}
	}
	return live
}

// close releases the manifest file.
func (vs *versionSet) close() error {
	if vs.manifestFile != nil {
		return vs.manifestFile.Close()
	}
	return nil
}
