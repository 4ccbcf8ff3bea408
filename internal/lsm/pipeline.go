package lsm

import (
	"errors"
	"time"

	"lsmio/internal/rt"
)

// Table-build pipeline: with Options.EncodeWorkers > 0 a tableWriter
// runs its two stages on tasks of their own. The producer (flush or
// compaction) cuts raw blocks and submits them to a bounded job queue;
// EncodeWorkers encoder tasks run tableWriter.encode on them out of
// order (this is where the CPU goes: Pome's observation is that this
// stage, run inline, starves the disk); one writer task runs
// tableWriter.place on them in submission order and then writes the
// tail, so the bytes on disk are those of an inline build.
//
// Locking: each pipeline has its own rt mutex + cond, independent of the
// engine lock. Pipeline tasks never touch the engine lock, and pipeline
// methods are only called either without the engine lock (flush/compaction
// table builds run unlocked) or on the pipeline's own tasks.

// errPipelineAborted poisons a pipeline whose table build was abandoned
// (e.g. the merge iterator failed); tasks drain and exit.
var errPipelineAborted = errors.New("lsm: table pipeline aborted")

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
	jobs       []tableBlock
	nextSeq    int // seq assigned to the next submitted job
	ready      map[int]tableBlock
	writeSeq   int // next seq the writer will place
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
		ready:    make(map[int]tableBlock),
		encoders: workers,
	}
	p.c = p.mu.NewCond()
	for i := 0; i < workers; i++ {
		p.rt.Go("lsm-encode", false, p.encoderLoop)
	}
	p.rt.Go("lsm-tblwrite", false, p.writerLoop)
	return p
}

// submit queues one block for the compute stage, blocking while the
// queue is at its depth bound. Returns the pipeline error, if any.
func (p *tablePipeline) submit(b tableBlock) error {
	p.mu.Lock()
	for p.err == nil && len(p.jobs) >= p.depth {
		p.c.Wait()
	}
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	b.seq = p.nextSeq
	p.nextSeq++
	p.jobs = append(p.jobs, b)
	p.m.pipeQueueDepth.Observe(int64(len(p.jobs)))
	p.c.Broadcast()
	p.mu.Unlock()
	return nil
}

// closeSubmit marks the job stream complete (carrying any producer error)
// so the stages can drain and the writer can write the table tail.
func (p *tablePipeline) closeSubmit(perr error) {
	p.mu.Lock()
	if perr != nil && p.err == nil {
		p.err = perr
	}
	p.closed = true
	p.c.Broadcast()
	p.mu.Unlock()
}

// wait blocks until the writer task has exited, the table written and
// synced or the build failed, and returns the build's error.
func (p *tablePipeline) wait() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.writerDone {
		p.c.Wait()
	}
	return p.err
}

// abort poisons a pipeline that is still being fed (a sealed one is left
// to write its tail) and blocks until every task has exited, so the
// caller may close and delete the output file underneath it.
func (p *tablePipeline) abort() {
	p.mu.Lock()
	if !p.closed {
		if p.err == nil {
			p.err = errPipelineAborted
		}
		p.closed = true
		p.c.Broadcast()
	}
	for !p.writerDone || p.encoders > 0 {
		p.c.Wait()
	}
	p.mu.Unlock()
}

// encoderLoop is the compute stage: pop a block, encode it outside the
// pipeline lock, and deliver it to the reorder buffer.
func (p *tablePipeline) encoderLoop() {
	p.mu.Lock()
	for {
		for p.err == nil && len(p.jobs) == 0 && !p.closed {
			p.c.Wait()
		}
		if p.err != nil || len(p.jobs) == 0 {
			break
		}
		b := p.jobs[0]
		p.jobs = p.jobs[1:]
		p.c.Broadcast() // queue space freed: unblock the producer
		p.mu.Unlock()

		start := p.rt.Now()
		p.w.encode(&b, new([]byte))
		d := p.rt.Now() - start

		p.mu.Lock()
		p.m.pipeBlocks.Inc()
		p.m.pipeEncodeBusyUS.Add(int64(d / time.Microsecond))
		p.m.pipeEncodeDur.ObserveDuration(d)
		p.ready[b.seq] = b
		p.c.Broadcast()
	}
	p.encoders--
	p.c.Broadcast()
	p.mu.Unlock()
}

// writerLoop is the I/O stage: place encoded blocks in submission order,
// then write the table tail. The writer task is the place side of the
// tableWriter; it never touches the producer's error state (w.err), so
// the two sides share no unsynchronized fields.
func (p *tablePipeline) writerLoop() {
	p.mu.Lock()
	for p.err == nil {
		b, ok := p.ready[p.writeSeq]
		if !ok {
			if p.closed && p.writeSeq >= p.nextSeq {
				break // stream complete and fully placed
			}
			p.c.Wait()
			continue
		}
		delete(p.ready, p.writeSeq)
		p.writeSeq++
		p.write(func() error {
			_, err := p.w.place(&b)
			return err
		})
	}
	if p.err == nil {
		p.write(p.w.writeTail)
	}
	p.writerDone = true
	p.c.Broadcast()
	p.mu.Unlock()
}

// write runs one step of the writer task outside the lock, adds its
// time to the write stage's busy counters and latches its error. Called
// with p.mu held; returns with it held.
func (p *tablePipeline) write(step func() error) {
	p.mu.Unlock()
	start := p.rt.Now()
	err := step()
	d := p.rt.Now() - start
	p.mu.Lock()
	p.m.pipeWriteBusyUS.Add(int64(d / time.Microsecond))
	p.m.pipeWriteDur.ObserveDuration(d)
	if err != nil && p.err == nil {
		p.err = err
	}
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
