package lsm

import (
	"errors"
	"time"

	"lsmio/internal/rt"
)

// Table-build pipeline: when Options.EncodeWorkers > 0 every output table
// is built by a two-stage pipeline instead of one serial loop. The
// producer (flush or compaction) cuts raw blocks and submits them to a
// bounded job queue; EncodeWorkers encoder tasks compress and checksum
// blocks out of order (this is where the CPU goes — Pome's observation is
// that this stage, run inline, starves the disk); one writer task drains
// finished blocks in submission order and owns the file offset and index
// construction, so the bytes on disk are identical to the serial writer's.
//
// Locking: each pipeline has its own rt mutex + cond, independent of the
// engine lock. Pipeline tasks never touch the engine lock, and pipeline
// methods are only called either without the engine lock (flush/compaction
// table builds run unlocked) or on the pipeline's own tasks.

// errPipelineAborted poisons a pipeline whose table build was abandoned
// (e.g. the merge iterator failed); tasks drain and exit.
var errPipelineAborted = errors.New("lsm: table pipeline aborted")

type blockKind uint8

const (
	blkData blockKind = iota
	blkFilter
)

// encodeJob is one unit of compute-stage work: a raw data block to
// compress+checksum, or the bloom-filter build (raw nil; the keys come
// from the tableWriter, which stops appending before the job is queued).
type encodeJob struct {
	seq           int
	kind          blockKind
	raw           rawBlock
	indexKey      internalKey // data blocks: separator key for the index
	allowCompress bool
}

// encodedBlock is the compute stage's output: encoded payload + trailer,
// ready to be appended to the file verbatim.
type encodedBlock struct {
	kind       blockKind
	enc        rawBlock
	payloadLen int
	indexKey   internalKey
}

// tablePipeline coordinates the encoder pool and the writer task for one
// output table. All fields below mu are guarded by mu; c is its one
// wait channel.
type tablePipeline struct {
	w     *tableWriter
	rt    rt.Runtime
	m     *dbMetrics
	depth int // job-queue bound: back pressure between producer and encoders

	mu         rt.Mutex
	c          rt.Cond
	jobs       []encodeJob
	nextSeq    int // seq assigned to the next submitted job
	ready      map[int]encodedBlock
	writeSeq   int // next seq the writer will emit
	closed     bool
	err        error
	encoders   int
	writerDone bool
}

// newTablePipeline starts the encoder pool and writer task for w.
func newTablePipeline(w *tableWriter, workers int) *tablePipeline {
	p := &tablePipeline{
		w:        w,
		rt:       w.opts.Runtime,
		m:        w.m,
		depth:    2 * workers,
		mu:       w.opts.Runtime.NewMutex(),
		ready:    make(map[int]encodedBlock),
		encoders: workers,
	}
	p.c = p.mu.NewCond()
	for i := 0; i < workers; i++ {
		p.rt.Go("lsm-encode", false, p.encoderLoop)
	}
	p.rt.Go("lsm-tblwrite", false, p.writerLoop)
	return p
}

// submit queues one job for the compute stage, blocking while the queue
// is at its depth bound. Returns the pipeline error, if any.
func (p *tablePipeline) submit(j encodeJob) error {
	p.mu.Lock()
	for p.err == nil && len(p.jobs) >= p.depth {
		p.c.Wait()
	}
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	j.seq = p.nextSeq
	p.nextSeq++
	p.jobs = append(p.jobs, j)
	p.m.pipeQueueDepth.Observe(int64(len(p.jobs)))
	p.c.Broadcast()
	p.mu.Unlock()
	return nil
}

// closeSubmit marks the job stream complete (carrying any producer error)
// so the stages can drain and the writer can emit the table tail.
func (p *tablePipeline) closeSubmit(perr error) {
	p.mu.Lock()
	if perr != nil && p.err == nil {
		p.err = perr
	}
	p.closed = true
	p.c.Broadcast()
	p.mu.Unlock()
}

// abort poisons the pipeline and blocks until every task has exited, so
// the caller may close and delete the output file underneath it.
func (p *tablePipeline) abort() {
	p.mu.Lock()
	if p.err == nil {
		p.err = errPipelineAborted
	}
	p.closed = true
	p.c.Broadcast()
	for !p.writerDone || p.encoders > 0 {
		p.c.Wait()
	}
	p.mu.Unlock()
}

// encoderLoop is the compute stage: pop a job, encode it outside the
// pipeline lock (compression, CRC, bloom hashing — and the simulated CPU
// charge), and deliver the result to the reorder buffer.
func (p *tablePipeline) encoderLoop() {
	p.mu.Lock()
	for {
		for p.err == nil && len(p.jobs) == 0 && !p.closed {
			p.c.Wait()
		}
		if p.err != nil || len(p.jobs) == 0 {
			break
		}
		job := p.jobs[0]
		p.jobs = p.jobs[1:]
		p.c.Broadcast() // queue space freed: unblock the producer
		p.mu.Unlock()

		start := p.rt.Now()
		eb := p.encode(job)
		d := p.rt.Now() - start

		p.mu.Lock()
		p.m.pipeBlocks.Inc()
		p.m.pipeEncodeBusyUS.Add(int64(d / time.Microsecond))
		p.m.pipeEncodeDur.ObserveDuration(d)
		p.ready[job.seq] = eb
		p.c.Broadcast()
	}
	p.encoders--
	p.c.Broadcast()
	p.mu.Unlock()
}

// encode runs one job's compute work. Called without the pipeline lock.
func (p *tablePipeline) encode(job encodeJob) encodedBlock {
	raw := job.raw
	allowCompress := job.allowCompress
	if job.kind == blkFilter {
		raw = rawBlock{buf: buildBloom(p.w.userKeys, p.w.opts.BitsPerKey)}
		allowCompress = false // random bits don't compress
	}
	chargeEncodeCost(p.w.opts, raw.size())
	enc, payloadLen := encodeBlock(p.w.opts, raw, allowCompress, new([]byte))
	return encodedBlock{
		kind:       job.kind,
		enc:        enc,
		payloadLen: payloadLen,
		indexKey:   job.indexKey,
	}
}

// writerLoop is the I/O stage: emit encoded blocks in submission order,
// owning the file offset and index construction, then write the table
// tail (index block, footer) and fsync. In piped mode the writer task is
// the sole owner of w.offset, w.index, the coalescing buffer, and the
// file handle; the producer's own error state (w.err) is never touched
// here, so the two sides share no unsynchronized fields.
func (p *tablePipeline) writerLoop() {
	w := p.w
	var filterHandle blockHandle
	var werr error
	p.mu.Lock()
	for p.err == nil {
		eb, ok := p.ready[p.writeSeq]
		if !ok {
			if p.closed && p.writeSeq >= p.nextSeq {
				break // stream complete and fully written
			}
			p.c.Wait()
			continue
		}
		delete(p.ready, p.writeSeq)
		p.writeSeq++
		p.mu.Unlock()

		start := p.rt.Now()
		h := blockHandle{offset: w.offset, length: int64(eb.payloadLen)}
		werr = w.emit(eb.enc)
		w.offset += int64(eb.payloadLen) + blockTrailerLen
		switch eb.kind {
		case blkData:
			w.index.add(eb.indexKey, encodeHandle(h))
		case blkFilter:
			filterHandle = h
		}
		d := p.rt.Now() - start

		p.mu.Lock()
		p.m.pipeWriteBusyUS.Add(int64(d / time.Microsecond))
		p.m.pipeWriteDur.ObserveDuration(d)
		if werr != nil && p.err == nil {
			p.err = werr
		}
	}
	finishTail := p.err == nil
	p.mu.Unlock()

	if finishTail {
		start := p.rt.Now()
		err := w.writeTail(filterHandle)
		d := p.rt.Now() - start
		p.mu.Lock()
		p.m.pipeWriteBusyUS.Add(int64(d / time.Microsecond))
		p.m.pipeWriteDur.ObserveDuration(d)
		if err != nil && p.err == nil {
			p.err = err
		}
	} else {
		p.mu.Lock()
	}
	p.writerDone = true
	p.c.Broadcast()
	p.mu.Unlock()
}

// pendingTable is a handle to a table whose tail write and fsync may
// still be in flight; wait blocks until the table is durable (or failed).
// Compactions use it to overlap one output's fsync with the next output's
// encoding; the serial writer resolves it immediately.
type pendingTable struct {
	p    *tablePipeline
	meta tableMeta
	err  error
	done bool
}

// wait blocks until the table is fully written and synced, returning its
// metadata.
func (pt *pendingTable) wait() (tableMeta, error) {
	if pt.done {
		return pt.meta, pt.err
	}
	p := pt.p
	p.mu.Lock()
	for !p.writerDone {
		p.c.Wait()
	}
	err := p.err
	p.mu.Unlock()
	pt.done = true
	if err != nil {
		pt.err = err
		return tableMeta{}, err
	}
	pt.meta = p.w.meta
	return pt.meta, nil
}

// chargeEncodeCost bills the runtime's Compute clock for encoding
// rawBytes of block data. A no-op on the real runtime and whenever
// EncodeCostPerMB is unset.
func chargeEncodeCost(opts *Options, rawBytes int) {
	if opts.EncodeCostPerMB <= 0 || opts.Runtime == nil || rawBytes <= 0 {
		return
	}
	opts.Runtime.Compute(time.Duration(int64(opts.EncodeCostPerMB) * int64(rawBytes) / (1 << 20)))
}
