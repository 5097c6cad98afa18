package isolate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"predator/internal/core"
	"predator/internal/jvm"
	"predator/internal/types"
)

// Executor is the parent-side handle to one executor process. An
// executor hosts exactly one UDF and evaluates one invocation at a
// time (the paper assigns one remote executor per UDF per query).
//
// The handle supervises the child: every wait on the pipe can carry a
// deadline, and any deadline expiry, protocol violation or pipe break
// SIGKILLs and reaps the child — a broken executor is never reused.
type Executor struct {
	mu     sync.Mutex
	cmd    *exec.Cmd
	conn   *conn
	sup    Supervision
	done   bool // child reaped; handle unusable
	broken bool // fatal fault observed; must not be reused or pooled

	// waited closes once the background reaper has collected the
	// child's exit status (so no path can leak a zombie).
	waited  chan struct{}
	waitErr error
}

// StartExecutor launches a new executor process under the default
// supervision policy.
func StartExecutor() (*Executor, error) {
	return StartExecutorWith(DefaultSupervision)
}

// StartExecutorWith launches a new executor process by re-executing
// the current binary with ExecutorEnv set, bounding the launch and
// readiness handshake by sup.StartTimeout.
func StartExecutorWith(sup Supervision) (*Executor, error) {
	sup = sup.withDefaults()
	self, err := os.Executable()
	if err != nil {
		return nil, core.NewFault(core.FaultExecutor, "start", fmt.Errorf("locate executable: %w", err))
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), ExecutorEnv+"=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, core.NewFault(core.FaultExecutor, "start", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, core.NewFault(core.FaultExecutor, "start", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, core.NewFault(core.FaultExecutor, "start", fmt.Errorf("start executor: %w", err))
	}
	cStarts.Inc()
	e := &Executor{cmd: cmd, conn: newConn(stdout, stdin), sup: sup, waited: make(chan struct{})}
	// Reap in the background: whatever way the child dies, its exit
	// status is collected exactly once and no zombie remains. The reap
	// is also where the child's true CPU time (rusage) becomes known,
	// so the process-wide executor CPU counter is charged here.
	go func() {
		e.waitErr = cmd.Wait()
		if ps := cmd.ProcessState; ps != nil {
			cExecutorCPU.Add(int64(ps.UserTime() + ps.SystemTime()))
		}
		close(e.waited)
	}()
	// Wait for the child to signal readiness, under the start deadline.
	e.mu.Lock()
	defer e.mu.Unlock()
	f, err := e.recvDeadlineLocked("start", time.Now().Add(sup.StartTimeout))
	if err != nil {
		e.destroyLocked()
		return nil, err
	}
	if f.typ != msgReady {
		e.destroyLocked()
		return nil, core.Faultf(core.FaultProtocol, "start", "unexpected first message %d", f.typ)
	}
	return e, nil
}

// recvDeadlineLocked reads one frame, killing the child and returning
// a FaultTimeout if the deadline (non-zero) expires first. Pipe errors
// destroy the executor and classify as FaultExecutor. The caller holds
// e.mu. A timed-out read abandons its reader goroutine; that is safe
// because timeout always destroys the executor, so no later read can
// race with the abandoned one.
func (e *Executor) recvDeadlineLocked(op string, deadline time.Time) (frame, error) {
	if deadline.IsZero() {
		f, err := e.conn.recv()
		if err != nil {
			class := classifyRecvErr(err)
			e.destroyLocked()
			return frame{}, core.NewFault(class, op, e.exitError(err))
		}
		return f, nil
	}
	d := time.Until(deadline)
	if d <= 0 {
		cTimeouts.Inc()
		e.destroyLocked()
		return frame{}, core.Faultf(core.FaultTimeout, op, "deadline expired before %s reply", op)
	}
	type res struct {
		f   frame
		err error
	}
	ch := make(chan res, 1)
	go func() {
		f, err := e.conn.recv()
		ch <- res{f, err}
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			class := classifyRecvErr(r.err)
			e.destroyLocked()
			return frame{}, core.NewFault(class, op, e.exitError(r.err))
		}
		return r.f, nil
	case <-t.C:
		cTimeouts.Inc()
		e.destroyLocked()
		return frame{}, core.Faultf(core.FaultTimeout, op, "no reply within %v (executor killed)", d.Round(time.Millisecond))
	}
}

// classifyRecvErr distinguishes a babbling child (invalid framing —
// the protocol itself was violated) from a dead one (broken pipe).
func classifyRecvErr(err error) core.FaultClass {
	if errors.Is(err, errFrameSize) {
		return core.FaultProtocol
	}
	return core.FaultExecutor
}

// exitError augments a pipe error with the child's exit status when it
// has already been reaped (e.g. "executor exited: exit status 42").
func (e *Executor) exitError(err error) error {
	select {
	case <-e.waited:
		if e.waitErr != nil {
			return fmt.Errorf("executor died: %v (pipe: %v)", e.waitErr, err)
		}
		return fmt.Errorf("executor exited (pipe: %v)", err)
	default:
		return err
	}
}

// destroyLocked SIGKILLs the child (if still running) and reaps it.
// After destroy the handle is done and never reusable.
func (e *Executor) destroyLocked() {
	if e.done {
		return
	}
	e.done = true
	e.broken = true
	select {
	case <-e.waited:
		// Already exited and reaped.
	default:
		e.cmd.Process.Kill()
		cKills.Inc()
		<-e.waited
	}
}

// sendLocked writes one frame, destroying the executor on pipe errors.
func (e *Executor) sendLocked(op string, typ byte, payload []byte) error {
	if e.done || e.broken {
		return core.Faultf(core.FaultExecutor, op, "executor is closed")
	}
	if err := e.conn.send(typ, payload); err != nil {
		e.destroyLocked()
		return core.NewFault(core.FaultExecutor, op, e.exitError(err))
	}
	return nil
}

// SetupNative binds the executor to the named native UDF, which must
// be present in the executor's native table (see MaybeRunExecutor).
func (e *Executor) SetupNative(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.sendLocked("setup", msgSetupNative, appendString(nil, name)); err != nil {
		return err
	}
	return e.awaitReadyLocked()
}

// VMSetup describes the Jaguar UDF an executor should host (Design 4).
type VMSetup struct {
	ClassBytes []byte
	Method     string
	Limits     jvm.Limits
}

// SetupVM ships a verified Jaguar class to the executor, which loads
// (and re-verifies) it in its own VM.
func (e *Executor) SetupVM(s VMSetup) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	buf := appendBytes(nil, s.ClassBytes)
	buf = appendString(buf, s.Method)
	buf = binary.AppendVarint(buf, s.Limits.Fuel)
	buf = binary.AppendVarint(buf, s.Limits.MaxAllocBytes)
	buf = binary.AppendVarint(buf, int64(s.Limits.MaxCallDepth))
	if err := e.sendLocked("setup", msgSetupVM, buf); err != nil {
		return err
	}
	return e.awaitReadyLocked()
}

func (e *Executor) awaitReadyLocked() error {
	f, err := e.recvDeadlineLocked("setup", time.Now().Add(e.sup.SetupTimeout))
	if err != nil {
		return err
	}
	switch f.typ {
	case msgReady:
		return nil
	case msgError:
		// A clean rejection: the UDF (name, class) is bad, the
		// executor itself is healthy and restarting cannot help.
		r := &preader{buf: f.payload}
		return core.Faultf(core.FaultUDF, "setup", "executor setup failed: %s", r.str())
	default:
		e.destroyLocked()
		return core.Faultf(core.FaultProtocol, "setup", "unexpected setup reply %d", f.typ)
	}
}

// Ping round-trips a health probe with its own deadline. A failed ping
// destroys the executor and returns the classified fault.
func (e *Executor) Ping(timeout time.Duration) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if timeout <= 0 {
		timeout = e.sup.PingTimeout
	}
	if err := e.sendLocked("ping", msgPing, nil); err != nil {
		return err
	}
	f, err := e.recvDeadlineLocked("ping", time.Now().Add(timeout))
	if err != nil {
		return err
	}
	if f.typ != msgPong {
		e.destroyLocked()
		return core.Faultf(core.FaultProtocol, "ping", "unexpected ping reply %d", f.typ)
	}
	return nil
}

// Alive reports whether the child process is still running and no
// fatal fault has been observed. It is a cheap local check; Ping
// verifies the protocol loop end to end.
func (e *Executor) Alive() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done || e.broken {
		return false
	}
	select {
	case <-e.waited:
		return false
	default:
		return true
	}
}

// PID returns the child's process id (for diagnostics and tests).
func (e *Executor) PID() int { return e.cmd.Process.Pid }

// Invoke evaluates the UDF in the executor process. Arguments and the
// result are copied across the process boundary; callbacks made by the
// UDF are served by ctx.Callback, each one a round trip. The whole
// invocation — callbacks included — runs under the merged deadline of
// the supervision policy's InvokeTimeout and ctx.Deadline; expiry
// kills the executor and yields a FaultTimeout.
func (e *Executor) Invoke(ctx *core.Ctx, args []types.Value) (types.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cInvocations.Inc()
	deadline := deadlineFor(e.sup.InvokeTimeout, ctx)
	traced, err := e.sendTraceCtxLocked(ctx)
	if err != nil {
		return types.Value{}, err
	}
	buf := takePayload()
	buf = binary.AppendUvarint(buf, uint64(len(args)))
	for _, a := range args {
		buf = types.EncodeValue(buf, a)
	}
	err = e.sendLocked("invoke", msgInvoke, buf)
	putPayload(buf)
	if err != nil {
		return types.Value{}, err
	}
	for {
		f, err := e.recvDeadlineLocked("invoke", deadline)
		if err != nil {
			return types.Value{}, err
		}
		switch f.typ {
		case msgResult:
			r := &preader{buf: f.payload}
			v := r.value()
			if r.err != nil {
				e.destroyLocked()
				return types.Value{}, core.NewFault(core.FaultProtocol, "invoke", r.err)
			}
			if traced {
				e.mergeChildSpansLocked(ctx, r)
			}
			return v.Clone(), nil
		case msgError:
			r := &preader{buf: f.payload}
			return types.Value{}, core.Faultf(core.FaultUDF, "invoke", "UDF failed: %s", r.str())
		case msgCallback:
			if err := e.serveCallbackLocked(ctx, f.payload); err != nil {
				return types.Value{}, err
			}
		default:
			e.destroyLocked()
			return types.Value{}, core.Faultf(core.FaultProtocol, "invoke", "unexpected message %d during invoke", f.typ)
		}
	}
}

// InvokeBatch evaluates len(out) rows in one process-boundary crossing
// (msgInvokeBatch carries every argument vector; msgResultBatch carries
// every result). Callbacks are serviced mid-batch exactly as in Invoke.
// Per-row UDF failures come back in out[i].Err and do not poison
// sibling rows; a non-nil return is a whole-batch boundary fault
// (timeout, crash, protocol violation) and the executor is destroyed
// where the protocol demands it, same as the scalar path.
func (e *Executor) InvokeBatch(ctx *core.Ctx, arity int, args []types.Value, out []core.BatchResult) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	cInvocations.Inc()
	deadline := deadlineFor(e.sup.InvokeTimeout, ctx)
	traced, err := e.sendTraceCtxLocked(ctx)
	if err != nil {
		return err
	}
	buf := takePayload()
	buf = binary.AppendUvarint(buf, uint64(len(out)))
	buf = binary.AppendUvarint(buf, uint64(arity))
	for _, a := range args {
		buf = types.EncodeValue(buf, a)
	}
	err = e.sendLocked("invoke", msgInvokeBatch, buf)
	putPayload(buf)
	if err != nil {
		return err
	}
	for {
		f, err := e.recvDeadlineLocked("invoke", deadline)
		if err != nil {
			return err
		}
		switch f.typ {
		case msgResultBatch:
			return e.decodeBatchResultLocked(f.payload, out, ctx, traced)
		case msgError:
			// Whole-batch rejection (bad frame, injected crash notice):
			// the batch as a unit failed before per-row results existed.
			r := &preader{buf: f.payload}
			return core.Faultf(core.FaultUDF, "invoke", "UDF failed: %s", r.str())
		case msgCallback:
			if err := e.serveCallbackLocked(ctx, f.payload); err != nil {
				return err
			}
		default:
			e.destroyLocked()
			return core.Faultf(core.FaultProtocol, "invoke", "unexpected message %d during batch invoke", f.typ)
		}
	}
}

// sendTraceCtxLocked precedes a traced invocation with a msgTraceCtx
// frame so the child records and ships its own spans. Untraced
// invocations send nothing — the wire stays byte-identical to the
// untraced protocol.
func (e *Executor) sendTraceCtxLocked(ctx *core.Ctx) (bool, error) {
	if ctx == nil || !ctx.Trace.Detailed() {
		return false, nil
	}
	buf := takePayload()
	buf = binary.AppendUvarint(buf, uint64(ctx.Trace.ID()))
	buf = binary.AppendUvarint(buf, 0) // parent span ID (reserved)
	err := e.sendLocked("invoke", msgTraceCtx, buf)
	putPayload(buf)
	if err != nil {
		return false, err
	}
	return true, nil
}

// mergeChildSpansLocked folds the span tail of a traced result frame
// into the invocation's trace, attributed to the child's PID. A missing
// or malformed tail is ignored rather than failing the invocation: the
// result value already decoded, and spans are diagnostics.
func (e *Executor) mergeChildSpansLocked(ctx *core.Ctx, r *preader) {
	recs := decodeChildSpans(r)
	if len(recs) > 0 {
		ctx.Trace.Merge(recs, e.PID())
	}
}

// decodeChildCPU consumes the CPU-attribution uvarint a child appends
// after the rows of a msgResultBatch frame and accumulates it on the
// invocation context. Like span tails, the value is diagnostics: a
// missing or malformed tail is ignored rather than failing the
// invocation (the rows already decoded), and the reader's error state
// is reset so a traced span tail after it can still be attempted.
func decodeChildCPU(r *preader, ctx *core.Ctx) {
	cpu := r.uvarint()
	if r.err != nil {
		r.err = nil
		return
	}
	ctx.AddReportedCPU(time.Duration(cpu))
}

// decodeBatchResultLocked unpacks a msgResultBatch payload into out.
// Values are cloned out of the connection's receive scratch before the
// next recv can reuse it.
func (e *Executor) decodeBatchResultLocked(payload []byte, out []core.BatchResult, ctx *core.Ctx, traced bool) error {
	r := &preader{buf: payload}
	n := int(r.uvarint())
	if r.err == nil && n != len(out) {
		e.destroyLocked()
		return core.Faultf(core.FaultProtocol, "invoke", "batch reply has %d rows, expected %d", n, len(out))
	}
	for i := range out {
		switch status := r.byte(); status {
		case 0:
			v := r.value()
			if r.err == nil {
				out[i] = core.BatchResult{Value: v.Clone()}
			}
		case 1:
			// The scalar reply's text: a row's error does not depend on
			// whether it crossed alone or in a batch.
			msg := r.str()
			if r.err == nil {
				out[i] = core.BatchResult{Err: core.Faultf(core.FaultUDF, "invoke",
					"UDF failed: %s", msg)}
			}
		default:
			if r.err == nil {
				r.err = fmt.Errorf("bad batch row status %d at row %d", status, i)
			}
		}
		if r.err != nil {
			e.destroyLocked()
			return core.NewFault(core.FaultProtocol, "invoke", r.err)
		}
	}
	decodeChildCPU(r, ctx)
	if traced {
		e.mergeChildSpansLocked(ctx, r)
	}
	return nil
}

// serveCallbackLocked answers one callback request from the executor.
func (e *Executor) serveCallbackLocked(ctx *core.Ctx, payload []byte) error {
	r := &preader{buf: payload}
	op := r.byte()
	handle := r.varint()
	off := r.varint()
	length := r.varint()
	if r.err != nil {
		e.destroyLocked()
		return core.NewFault(core.FaultProtocol, "callback", r.err)
	}
	fail := func(err error) error {
		return e.sendLocked("callback", msgCBResult, appendString([]byte{0}, err.Error()))
	}
	if ctx == nil || ctx.Callback == nil {
		return fail(fmt.Errorf("no callback handler installed"))
	}
	switch op {
	case cbSize:
		n, err := ctx.Callback.Size(handle)
		if err != nil {
			return fail(err)
		}
		return e.sendLocked("callback", msgCBResult, binary.AppendVarint([]byte{1}, n))
	case cbGet:
		b, err := ctx.Callback.Get(handle, off)
		if err != nil {
			return fail(err)
		}
		return e.sendLocked("callback", msgCBResult, binary.AppendVarint([]byte{1}, int64(b)))
	case cbRead:
		data, err := ctx.Callback.Read(handle, off, length)
		if err != nil {
			return fail(err)
		}
		return e.sendLocked("callback", msgCBResult, appendBytes([]byte{1}, data))
	case cbTouch:
		if err := ctx.Callback.Touch(handle); err != nil {
			return fail(err)
		}
		return e.sendLocked("callback", msgCBResult, binary.AppendVarint([]byte{1}, 0))
	default:
		return fail(fmt.Errorf("unknown callback op %d", op))
	}
}

// Close shuts the executor process down: polite msgShutdown first,
// then — if the child has not exited within the grace period — SIGKILL
// and reap, so Close can never hang on a wedged child.
func (e *Executor) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return nil
	}
	e.broken = true
	// Best effort politeness; a dead pipe just means the child is
	// already gone and the reaper will (or did) collect it.
	_ = e.conn.send(msgShutdown, nil)
	t := time.NewTimer(e.sup.ShutdownGrace)
	defer t.Stop()
	select {
	case <-e.waited:
	case <-t.C:
		e.cmd.Process.Kill()
		cKills.Inc()
		<-e.waited
	}
	e.done = true
	return nil
}
