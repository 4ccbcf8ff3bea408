package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"

	"lsmio/internal/iosched"
	"lsmio/internal/snappy"
	"lsmio/internal/vfs"
)

// Sorted-string tables are the C1..Ck trees of the LSM paper: immutable,
// sorted, block-structured files written once by a flush or compaction and
// never edited in place.
//
// Layout:
//
//	data block*      each followed by a 5-byte trailer: type(1) crc32(4)
//	filter block     bloom filter over user keys (same trailer)
//	index block      lastIKey(block) -> handle (same trailer)
//	footer (40 B)    filterOff filterLen indexOff indexLen magic
const (
	tableMagic      = 0x4c534d494f544221 // "LSMIOTB!"
	footerLen       = 40
	blockTrailerLen = 5

	// Block types. Never reuse type 1: tables of earlier builds may hold
	// DEFLATE blocks under it, which read as corruption, like any type
	// not listed here.
	compressionNone   = 0
	compressionSnappy = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockHandle locates a block within a table file.
type blockHandle struct {
	offset int64
	length int64 // without trailer
}

func encodeHandle(h blockHandle) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(h.offset))
	binary.LittleEndian.PutUint64(b[8:], uint64(h.length))
	return b[:]
}

func decodeHandle(b []byte) (blockHandle, error) {
	if len(b) < 16 {
		return blockHandle{}, fmt.Errorf("lsm: handle too short")
	}
	return blockHandle{
		offset: int64(binary.LittleEndian.Uint64(b[:8])),
		length: int64(binary.LittleEndian.Uint64(b[8:])),
	}, nil
}

// tableMeta describes a finished table.
type tableMeta struct {
	fileNum    uint64
	size       int64
	smallest   internalKey
	largest    internalKey
	entries    int
	tombstones int // entries that are deletions
}

// mostlyTombstones reports whether at least half the table's entries
// are deletions: the flush of a retired checkpoint step.
func (m tableMeta) mostlyTombstones() bool { return 2*m.tombstones >= m.entries }

// tableWriter builds one table file, from its Create to its Close. The
// producer adds sorted entries and cuts them into blocks; encode
// (compress, checksum, bloom) and place (write, advance the offset,
// record the block in the index or for the footer) turn each block into
// file bytes; seal ends the stream with the filter and sets off the
// tail (index, footer, fsync); wait returns the metadata and closes the
// file. A build that fails or is aborted removes its file.
//
// With Options.EncodeWorkers 0 the producer runs encode and place
// itself, in the caller's task. Otherwise the same two functions run on
// the pipeline of pipeline.go: encoder tasks encode, one writer task
// places and writes the tail. The producer side (add, seal) owns
// dataBlock, userKeys, lastIKey, approxSize, err and meta but its size;
// the place side owns the file's writes, buf, offset, index,
// filterHandle and meta.size.
//
// Ownership: a block that crosses to another task takes the builder's
// buffer with it (blockBuilder.take) and a copy of its index key; an
// inline block borrows both, because it is placed before the producer
// touches them again. A value kept out of the builder (add) must stay
// unchanged until the table is sealed.
type tableWriter struct {
	f    vfs.File
	name string
	opts *Options
	m    *dbMetrics
	// ioClass is the scheduler class this build's bytes are charged to:
	// Flush for memtable flushes, Compaction for compaction outputs.
	// Unused when opts.IOSched is nil.
	ioClass iosched.Class
	pipe    *tablePipeline // nil: no encode workers, the build runs inline

	// Producer side.
	dataBlock  *blockBuilder
	userKeys   [][]byte // for the bloom filter
	lastIKey   internalKey
	meta       tableMeta
	err        error
	approxSize int64  // bytes cut so far, before encoding
	cbuf       []byte // inline builds: the compressed form of the block being placed

	// Place side.
	buf          bytes.Buffer // pending bytes when coalescing writes
	coalesce     int          // flush granularity for buf; 0 = write-through
	offset       int64
	index        *blockBuilder
	filterHandle blockHandle
}

// newTableWriter creates the table file name and starts a build on it.
// With UseMMap the writer models mmap-style I/O by coalescing block
// writes into large segments (one write per ~1 MB region); otherwise
// each block is written as produced. m may be nil (repair, tests);
// EncodeWorkers > 0 starts the build pipeline.
func newTableWriter(opts *Options, name string, fileNum uint64, m *dbMetrics, ioClass iosched.Class) (*tableWriter, error) {
	f, err := opts.FS.Create(name)
	if err != nil {
		return nil, err
	}
	w := &tableWriter{
		f:         f,
		name:      name,
		opts:      opts,
		m:         m,
		ioClass:   ioClass,
		dataBlock: newBlockBuilder(blockRestartInterval),
		index:     newBlockBuilder(1),
	}
	w.meta.fileNum = fileNum
	if opts.UseMMap {
		w.coalesce = 1 << 20
	}
	if w.m == nil {
		w.m = &discardMetrics
	}
	if opts.EncodeWorkers > 0 && opts.Runtime != nil {
		w.pipe = newTablePipeline(w, opts.EncodeWorkers)
	} else {
		select {
		case b := <-keptBlockBufs:
			w.dataBlock.buf, w.cbuf = b.block, b.comp
		default:
		}
	}
	return w, nil
}

// blockBufs are an inline build's two block buffers: the block being
// built and its compressed form. They grow to the largest block of the
// table, a value's size where values are larger than a block, so a
// writer that started from empty ones would grow them again, doubling,
// for every flush and every merge output. They are kept between tables
// instead, up to one pair per P, and dropped when a block larger than
// maxKeptBlockBuf grew them.
type blockBufs struct{ block, comp []byte }

var keptBlockBufs = make(chan blockBufs, runtime.GOMAXPROCS(0))

const maxKeptBlockBuf = 1 << 20

// keepBlockBufs hands an inline build's block buffers on to the next
// table. The writer builds no more data blocks after it.
func (w *tableWriter) keepBlockBufs() {
	b := blockBufs{w.dataBlock.buf[:0], w.cbuf[:0]}
	w.dataBlock.buf, w.cbuf = nil, nil
	if cap(b.block) > maxKeptBlockBuf || cap(b.comp) > maxKeptBlockBuf {
		return
	}
	select {
	case keptBlockBufs <- b:
	default:
	}
}

// writeRaw appends p through the coalescing buffer, returning the write
// error instead of latching it: on a piped build the writer task keeps
// its own error state so it never races the producer's w.err.
func (w *tableWriter) writeRaw(p []byte) error {
	if w.coalesce == 0 {
		return w.writeScheduled(p)
	}
	w.buf.Write(p)
	if w.buf.Len() >= w.coalesce {
		err := w.writeScheduled(w.buf.Bytes())
		w.buf.Reset()
		return err
	}
	return nil
}

// drainRaw flushes any coalesced bytes still buffered.
func (w *tableWriter) drainRaw() error {
	if w.buf.Len() == 0 {
		return nil
	}
	err := w.writeScheduled(w.buf.Bytes())
	w.buf.Reset()
	return err
}

// writeScheduled is the single funnel every table-build byte passes
// through on its way to the filesystem: it buys ioClass tokens from the
// shared bandwidth scheduler (free when none is configured) and refunds
// them if a write fails, so an errored build does not hold budget the
// device never saw. Several pieces are one purchase and consecutive
// writes: a block whose value lies outside the builder's buffer costs
// the scheduler what it cost as one write.
func (w *tableWriter) writeScheduled(pieces ...[]byte) error {
	var n int64
	for _, p := range pieces {
		n += int64(len(p))
	}
	w.opts.IOSched.Acquire(w.ioClass, n)
	for _, p := range pieces {
		if len(p) == 0 {
			continue
		}
		if _, err := w.f.Write(p); err != nil {
			w.opts.IOSched.Cancel(w.ioClass, n)
			return err
		}
	}
	return nil
}

// add appends an entry; keys must arrive in increasing internal-key order.
// value is not copied when it is at least a block long and blocks are
// stored raw: it must stay unchanged until the table is sealed, which
// memtable entries and parsed blocks (the two sources) guarantee.
func (w *tableWriter) add(ik internalKey, value []byte) {
	if w.err != nil {
		return
	}
	if w.lastIKey.valid() && compareIKeys(ik, w.lastIKey) <= 0 {
		w.err = fmt.Errorf("lsm: keys out of order: %s after %s", ik, w.lastIKey)
		return
	}
	if !w.meta.smallest.valid() {
		w.meta.smallest = append(internalKey(nil), ik...)
	}
	w.lastIKey = append(w.lastIKey[:0], ik...)
	if w.opts.BitsPerKey > 0 {
		w.userKeys = append(w.userKeys, append([]byte(nil), ik.userKey()...))
	}
	w.meta.entries++
	if ik.kind() == kindDelete {
		w.meta.tombstones++
	}
	if len(value) >= w.opts.BlockSize && w.opts.DisableCompression {
		// The entry ends its block whatever came before it, so the value
		// need not pass through the builder: only its header does, and
		// the value goes from where it is to the file. (A codec needs the
		// whole block in one piece, hence the second condition.)
		w.dataBlock.addHeader(ik, len(value))
		w.cutDataBlock(value)
		return
	}
	w.dataBlock.add(ik, value)
	if w.dataBlock.estimatedSize() >= w.opts.BlockSize {
		w.cutDataBlock(nil)
	}
}

// cutDataBlock ends the block under construction and submits it. A
// non-nil value belongs to the block's last entry, whose header is the
// last thing in the builder.
func (w *tableWriter) cutDataBlock(value []byte) {
	if w.err != nil {
		return
	}
	b := tableBlock{kind: blkData, data: rawBlock{value: value}, indexKey: w.lastIKey}
	if value != nil {
		b.data.split = len(w.dataBlock.buf)
	}
	if w.pipe == nil {
		b.data.buf = w.dataBlock.finish()
	} else {
		b.data.buf = w.dataBlock.take(value == nil)
		b.indexKey = append(internalKey(nil), w.lastIKey...)
	}
	w.approxSize += int64(b.data.size()) + blockTrailerLen
	w.submit(&b)
	w.dataBlock.reset()
}

// submit sends a cut block on to encode and place: inline, both run
// before it returns; piped, the block joins the pipeline's queue.
func (w *tableWriter) submit(b *tableBlock) {
	if w.pipe != nil {
		w.err = w.pipe.submit(*b)
		return
	}
	w.encode(b, &w.cbuf)
	_, w.err = w.place(b)
}

type blockKind uint8

const (
	blkData blockKind = iota
	blkFilter
	blkIndex
)

// tableBlock is one block on its way into the file: its bytes as cut
// (a filter block has none until encode builds them), then as encoded.
type tableBlock struct {
	kind       blockKind
	seq        int // position in a piped build's stream
	data       rawBlock
	payloadLen int         // set by encode: the stored length, trailer excluded
	indexKey   internalKey // data blocks: the separator key for the index
}

// rawBlock is a block's bytes in file order: buf, or, when the block ends
// in an entry whose value was too large to copy, buf[:split] ++ value ++
// buf[split:] (only ever a block that is stored raw: add sees to that).
// encodeBlock turns an unencoded rawBlock into an encoded one of the same
// shape.
type rawBlock struct {
	buf   []byte
	value []byte
	split int
}

func (b rawBlock) size() int { return len(b.buf) + len(b.value) }

// encode is the compute stage: it builds a filter block's bloom filter
// (from the producer's keys, complete once seal submits the filter),
// then charges the simulated CPU for the block, compresses it (data and
// index blocks, when enabled) and appends its checksum trailer. The
// compressed bytes are built in *scratch.
func (w *tableWriter) encode(b *tableBlock, scratch *[]byte) {
	allowCompress := !w.opts.DisableCompression
	if b.kind == blkFilter {
		b.data = rawBlock{buf: buildBloom(w.userKeys, w.opts.BitsPerKey)}
		allowCompress = false // random bits do not compress
	}
	chargeEncodeCost(w.opts, b.data.size())
	b.data, b.payloadLen = encodeBlock(b.data, allowCompress, scratch)
}

// place is the I/O stage: it appends an encoded block at the current
// offset and records where it went, in the index for a data block and
// for the footer for the filter. It returns the block's handle.
func (w *tableWriter) place(b *tableBlock) (blockHandle, error) {
	h := blockHandle{offset: w.offset, length: int64(b.payloadLen)}
	err := w.emit(b.data)
	w.offset += int64(b.payloadLen) + blockTrailerLen
	switch b.kind {
	case blkData:
		w.index.add(b.indexKey, encodeHandle(h))
	case blkFilter:
		w.filterHandle = h
	}
	return h, err
}

// encodeBlock compresses raw with snappy (when allowed and the
// compressed form is >12.5% smaller) and appends the 5-byte block
// trailer, in place when raw.buf has the room (blockBuilder.finish leaves
// it). Returns the bytes to append to the file and the payload length
// (trailer excluded). A pure function of its arguments, so a table's
// bytes do not depend on which task encoded which block. The compressed
// bytes are built in *scratch: a caller that is done with one encoded
// block before it encodes the next (an inline build) passes the same one
// every time.
func encodeBlock(raw rawBlock, allowCompress bool, scratch *[]byte) (enc rawBlock, payloadLen int) {
	blockType := byte(compressionNone)
	enc = raw
	if allowCompress {
		c := snappy.Encode((*scratch)[:0], raw.buf)
		*scratch = c
		if len(c) < len(raw.buf)-len(raw.buf)/8 {
			enc.buf = c
			blockType = compressionSnappy
		}
	}
	payloadLen = enc.size()
	// One checksum over the pieces in file order. split is 0 without a
	// value, which makes the first two updates no-ops.
	crc := crc32.Update(0, crcTable, enc.buf[:enc.split])
	crc = crc32.Update(crc, crcTable, enc.value)
	crc = crc32.Update(crc, crcTable, enc.buf[enc.split:])
	crc = crc32.Update(crc, crcTable, []byte{blockType})
	enc.buf = append(enc.buf, blockType)
	enc.buf = binary.LittleEndian.AppendUint32(enc.buf, crc)
	return enc, payloadLen
}

// emit appends an encoded block to the file. A value that was kept out
// of the builder is written from where it lies, between the two halves of
// buf, unless it is smaller than a coalescing segment: then it is
// gathered into one like any other block.
func (w *tableWriter) emit(b rawBlock) error {
	if b.value == nil {
		return w.writeRaw(b.buf)
	}
	head, tail := b.buf[:b.split], b.buf[b.split:]
	if len(b.value) < w.coalesce {
		for _, p := range [][]byte{head, b.value, tail} {
			if err := w.writeRaw(p); err != nil {
				return err
			}
		}
		return nil
	}
	err := w.writeScheduled(w.buf.Bytes(), head, b.value, tail)
	w.buf.Reset()
	return err
}

// estimatedSize is the producer-visible output size, used for the
// compaction split heuristic: the exact offset of an inline build, the
// bytes cut so far on a piped one (the writer task owns the real
// offset; compression only shrinks it, so splits err slightly early).
func (w *tableWriter) estimatedSize() int64 {
	if w.pipe != nil {
		return w.approxSize
	}
	return w.offset
}

// seal ends the producer side (the last data block, then the bloom
// filter) and sets off the tail: an inline build writes it now, a piped
// one once its writer task has placed every block. wait collects the
// result.
func (w *tableWriter) seal() {
	if !w.dataBlock.empty() {
		w.cutDataBlock(nil)
	}
	if w.err == nil && w.opts.BitsPerKey > 0 && len(w.userKeys) > 0 {
		w.submit(&tableBlock{kind: blkFilter})
	}
	w.meta.largest = append(internalKey(nil), w.lastIKey...)
	if w.pipe != nil {
		w.pipe.closeSubmit(w.err)
		return
	}
	w.keepBlockBufs()
	if w.err == nil {
		w.err = w.writeTail()
	}
}

// writeTail ends the seal path once every other block is placed: the
// index block, the footer, the coalesced bytes still buffered, and the
// fsync. It runs on the place side and returns its error rather than
// latching it.
func (w *tableWriter) writeTail() error {
	index := tableBlock{kind: blkIndex, data: rawBlock{buf: w.index.finish()}}
	w.encode(&index, new([]byte))
	indexHandle, err := w.place(&index)
	if err != nil {
		return err
	}
	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(w.filterHandle.offset))
	binary.LittleEndian.PutUint64(footer[8:], uint64(w.filterHandle.length))
	binary.LittleEndian.PutUint64(footer[16:], uint64(indexHandle.offset))
	binary.LittleEndian.PutUint64(footer[24:], uint64(indexHandle.length))
	binary.LittleEndian.PutUint64(footer[32:], tableMagic)
	if err := w.writeRaw(footer[:]); err != nil {
		return err
	}
	w.offset += footerLen
	if err := w.drainRaw(); err != nil {
		return err
	}
	// Tables are always synced before they are returned, regardless of
	// Options.Sync: the caller installs the table into the (synced) manifest
	// immediately, and a manifest referencing a table whose bytes could
	// still be lost to a crash would silently drop acknowledged data.
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.meta.size = w.offset
	return nil
}

// wait returns the sealed table's metadata once its bytes are durable,
// and closes its file. A build that failed removes the file and
// returns the error.
func (w *tableWriter) wait() (tableMeta, error) {
	err := w.err
	if w.pipe != nil {
		err = w.pipe.wait()
	}
	if err != nil {
		w.discard()
		return tableMeta{}, err
	}
	if err := w.f.Close(); err != nil {
		w.opts.FS.Remove(w.name)
		return tableMeta{}, err
	}
	return w.meta, nil
}

// finish completes the table and returns its metadata.
func (w *tableWriter) finish() (tableMeta, error) {
	w.seal()
	return w.wait()
}

// abort abandons a build that will not be collected (error paths),
// sealed or not: its pipeline's tasks are drained, and its file is
// closed and removed.
func (w *tableWriter) abort() {
	if w.pipe != nil {
		w.pipe.abort()
	}
	w.discard()
}

// discard closes and removes the table file. Their errors change
// nothing: the build has already failed or been given up.
func (w *tableWriter) discard() {
	w.f.Close()
	w.opts.FS.Remove(w.name)
}

// tableReader serves point lookups and scans from one table file.
type tableReader struct {
	f       vfs.File
	fileNum uint64
	opts    *Options
	cache   *blockCache // shared, may be nil
	index   *block
	filter  []byte
	size    int64
}

// openTable reads the footer, index and filter of a table file.
func openTable(f vfs.File, opts *Options, fileNum uint64, cache *blockCache) (*tableReader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerLen {
		return nil, fmt.Errorf("lsm: table %d too small (%d bytes)", fileNum, size)
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-footerLen); err != nil && err != io.EOF {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[32:]) != tableMagic {
		return nil, fmt.Errorf("lsm: table %d: bad magic", fileNum)
	}
	t := &tableReader{f: f, fileNum: fileNum, opts: opts, cache: cache, size: size}
	filterHandle := blockHandle{
		offset: int64(binary.LittleEndian.Uint64(footer[0:])),
		length: int64(binary.LittleEndian.Uint64(footer[8:])),
	}
	indexHandle := blockHandle{
		offset: int64(binary.LittleEndian.Uint64(footer[16:])),
		length: int64(binary.LittleEndian.Uint64(footer[24:])),
	}
	rawIndex, err := t.readRawBlock(indexHandle, new([]byte), nil)
	if err != nil {
		return nil, fmt.Errorf("lsm: table %d index: %w", fileNum, err)
	}
	if t.index, err = parseBlock(rawIndex); err != nil {
		return nil, err
	}
	if filterHandle.length > 0 {
		if t.filter, err = t.readRawBlock(filterHandle, new([]byte), nil); err != nil {
			return nil, fmt.Errorf("lsm: table %d filter: %w", fileNum, err)
		}
	}
	return t, nil
}

// readRawBlock reads, verifies and decompresses one block (no cache).
// The stored bytes are read into *scratch, which grows by doubling
// (blocks that get larger in key order must not each outgrow it). With
// decoded nil, a block that was stored raw is returned as read, so it
// takes the buffer with it and *scratch is left nil, and a compressed one
// decodes into a new slice. Otherwise both buffers stay the caller's to
// reuse: a raw block is returned in *scratch, and a compressed one is
// decoded into *decoded.
func (t *tableReader) readRawBlock(h blockHandle, scratch, decoded *[]byte) ([]byte, error) {
	n := int(h.length) + blockTrailerLen
	if cap(*scratch) < n {
		*scratch = make([]byte, n, max(n, 2*cap(*scratch)))
	}
	buf := (*scratch)[:n]
	if _, err := t.f.ReadAt(buf, h.offset); err != nil && err != io.EOF {
		return nil, err
	}
	data, trailer := buf[:h.length], buf[h.length:]
	blockType := trailer[0]
	wantCRC := binary.LittleEndian.Uint32(trailer[1:])
	crc := crc32.Checksum(data, crcTable)
	crc = crc32.Update(crc, crcTable, []byte{blockType})
	if crc != wantCRC {
		return nil, fmt.Errorf("lsm: block at %d: checksum mismatch: %w", h.offset, ErrCorruption)
	}
	switch blockType {
	case compressionNone:
		if decoded == nil {
			*scratch = nil
		}
		return data, nil
	case compressionSnappy:
		var dst []byte
		if decoded != nil {
			dst = (*decoded)[:0]
		}
		out, err := snappy.Decode(dst, data)
		if err != nil {
			return nil, fmt.Errorf("lsm: block at %d: decompress: %w", h.offset, err)
		}
		if decoded != nil {
			*decoded = out
		}
		return out, nil
	default:
		return nil, fmt.Errorf("lsm: block at %d: unknown type %d: %w", h.offset, blockType, ErrCorruption)
	}
}

// readBlock returns a parsed block, using the shared cache when enabled.
// scratch is readRawBlock's.
func (t *tableReader) readBlock(h blockHandle, scratch *[]byte) (*block, error) {
	if t.cache != nil {
		if b, ok := t.cache.get(t.fileNum, h.offset); ok {
			return b, nil
		}
	}
	raw, err := t.readRawBlock(h, scratch, nil)
	if err != nil {
		return nil, err
	}
	b, err := parseBlock(raw)
	if err != nil {
		return nil, err
	}
	if t.cache != nil {
		t.cache.put(t.fileNum, h.offset, b, int64(len(raw)))
	}
	return b, nil
}

// readMergeBlock is readBlock for a merge's input: a block the cache
// holds is taken from it, but one read from the file is not inserted —
// the merge's output replaces the table, and its blocks would only push
// out the ones readers use. decoded is readRawBlock's.
func (t *tableReader) readMergeBlock(h blockHandle, scratch, decoded *[]byte) (*block, error) {
	if t.cache != nil {
		if b, ok := t.cache.get(t.fileNum, h.offset); ok {
			return b, nil
		}
	}
	raw, err := t.readRawBlock(h, scratch, decoded)
	if err != nil {
		return nil, err
	}
	return parseBlock(raw)
}

// get finds the newest entry for userKey at snapshot seq within this
// table. The value lies in the block the lookup read; own reports
// whether the caller may keep it as its own: true when no one else can
// see that block (the cache is off) and the value is most of it, so
// that handing it out keeps little else alive. Otherwise the caller
// copies it.
func (t *tableReader) get(userKey []byte, seq seqNum) (value []byte, own, found, deleted bool, err error) {
	if t.filter != nil && !bloomMayContain(t.filter, userKey) {
		return nil, false, false, false, nil
	}
	target := lookupKey(userKey, seq)
	idxIter := t.index.iterator()
	idxIter.Seek(target)
	if !idxIter.Valid() {
		return nil, false, false, false, idxIter.Close()
	}
	h, err := decodeHandle(idxIter.Value())
	if err != nil {
		return nil, false, false, false, err
	}
	b, err := t.readBlock(h, new([]byte))
	if err != nil {
		return nil, false, false, false, err
	}
	it := b.iterator()
	it.Seek(target)
	if !it.Valid() {
		return nil, false, false, false, it.Close()
	}
	ik := it.IKey()
	if !bytes.Equal(ik.userKey(), userKey) {
		return nil, false, false, false, it.Close()
	}
	if ik.kind() == kindDelete {
		return nil, false, true, true, it.Close()
	}
	v := it.Value()
	own = t.cache == nil && 2*len(v) >= len(b.data)
	return v[:len(v):len(v)], own, true, false, it.Close()
}

// iterator returns an ordered iterator over the whole table.
func (t *tableReader) iterator() *tableIterator {
	return &tableIterator{t: t, idx: t.index.iterator()}
}

// mergeIterator returns an iterator for a merge's input, which reads past
// the block cache (readMergeBlock). With reuse, every block it reads is
// decoded into the same buffers, so an entry stays valid only until the
// iterator next moves: the merge may reuse them only when the output
// copies what it is given, which tableWriter.add does unless blocks are
// stored raw.
func (t *tableReader) mergeIterator(reuse bool) *tableIterator {
	it := t.iterator()
	it.merge = true
	if reuse {
		it.decoded = new([]byte)
	}
	return it
}

// close releases the underlying file.
func (t *tableReader) close() error { return t.f.Close() }

// tableIterator is a two-level iterator: index block -> data blocks.
type tableIterator struct {
	t      *tableReader
	idx    *blockIterator
	data   *blockIterator
	stored []byte // the last compressed block as read, reused for the next
	// merge marks a merge's input (mergeIterator); decoded, when set, is
	// the buffer every block it reads is decoded into.
	merge   bool
	decoded *[]byte
	err     error
}

func (it *tableIterator) loadData() {
	it.data = nil
	if !it.idx.Valid() {
		return
	}
	h, err := decodeHandle(it.idx.Value())
	if err != nil {
		it.err = err
		return
	}
	var b *block
	if it.merge {
		b, err = it.t.readMergeBlock(h, &it.stored, it.decoded)
	} else {
		b, err = it.t.readBlock(h, &it.stored)
	}
	if err != nil {
		it.err = err
		return
	}
	it.data = b.iterator()
}

func (it *tableIterator) SeekToFirst() {
	it.idx.SeekToFirst()
	it.loadData()
	if it.data != nil {
		it.data.SeekToFirst()
	}
	it.skipEmpty()
}

func (it *tableIterator) Seek(ik internalKey) {
	it.idx.Seek(ik)
	it.loadData()
	if it.data != nil {
		it.data.Seek(ik)
	}
	it.skipEmpty()
}

// skipEmpty advances to the next data block while the current one is
// exhausted.
func (it *tableIterator) skipEmpty() {
	for it.err == nil && it.data != nil && !it.data.Valid() {
		it.idx.Next()
		it.loadData()
		if it.data != nil {
			it.data.SeekToFirst()
		}
	}
}

func (it *tableIterator) Next() {
	if it.data == nil {
		return
	}
	it.data.Next()
	it.skipEmpty()
}

func (it *tableIterator) Valid() bool {
	return it.err == nil && it.data != nil && it.data.Valid()
}

func (it *tableIterator) IKey() internalKey { return it.data.IKey() }
func (it *tableIterator) Value() []byte     { return it.data.Value() }
func (it *tableIterator) Close() error      { return it.err }
