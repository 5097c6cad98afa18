package isolate

import (
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"predator/internal/core"
	"predator/internal/types"
)

// MuxExecutor is the parent-side handle to one multiplexed executor
// process: a single child shared by many streams, each stream an
// independent (tenant, UDF) binding with at most one invocation in
// flight. A dispatcher goroutine owns the read side of the pipe and
// routes tagged frames to the waiting stream; writers interleave tagged
// frames under a write lock. One MuxExecutor therefore carries the
// traffic that would otherwise need one dedicated Executor per query
// per UDF — the fleet's whole point.
//
// Failure policy is deliberately blunt: any protocol violation, pipe
// break or deadline expiry destroys the entire process. The stream that
// caused the fault gets its precise classification (FaultTimeout,
// FaultProtocol); every innocent sibling resident on the process gets
// FaultExecutorLost, which is retryable — the fleet reopens the stream
// on a healthy executor.
type MuxExecutor struct {
	sup  Supervision
	cmd  *exec.Cmd
	conn *conn

	// wmu serializes frame writes (many streams share the pipe).
	wmu sync.Mutex

	// mu guards stream/warm bookkeeping.
	mu      sync.Mutex
	streams map[uint64]*MuxStream
	warm    map[string]struct{}
	nextID  uint64

	// dead closes exactly once when the process is destroyed for any
	// reason; deadErr records why.
	dead     chan struct{}
	deadOnce sync.Once
	deadErr  error

	// waited closes once the background reaper has collected the child.
	waited  chan struct{}
	waitErr error

	pongCh   chan struct{}
	lastPong int64 // unix-nano of the last successful ping
}

// muxFrame is one routed frame delivered to a stream.
type muxFrame struct {
	typ     byte
	payload []byte
}

// MuxStream is one open stream on a multiplexed executor. A stream
// carries at most one invocation at a time (concurrency comes from
// opening more streams); it is not safe for concurrent use.
type MuxStream struct {
	m   *MuxExecutor
	id  uint64
	key string

	// ch receives this stream's routed frames. The protocol guarantees
	// at most one undelivered frame per stream (the child sends one
	// result, error, ready or callback and then waits), so a two-slot
	// channel with double-buffered payload scratch never blocks the
	// dispatcher; a child violating that is destroyed as babbling.
	ch      chan muxFrame
	scratch [2][]byte
	si      int
}

// StreamSetup describes the UDF binding a new stream needs (exactly one
// of Native and VM set), mirroring the dedicated setup frames.
type StreamSetup struct {
	Native string
	VM     *VMSetup
}

// StartMux launches a multiplexed executor process: same re-exec
// bootstrap as StartExecutorWith, then the control-stream handshake
// that switches the child into tagged-frame mode, then the dispatcher.
func StartMux(sup Supervision) (*MuxExecutor, error) {
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
	m := &MuxExecutor{
		sup:     sup,
		cmd:     cmd,
		conn:    newConn(stdout, stdin),
		streams: make(map[uint64]*MuxStream),
		warm:    make(map[string]struct{}),
		dead:    make(chan struct{}),
		waited:  make(chan struct{}),
		pongCh:  make(chan struct{}, 1),
	}
	go func() {
		m.waitErr = cmd.Wait()
		if ps := cmd.ProcessState; ps != nil {
			cExecutorCPU.Add(int64(ps.UserTime() + ps.SystemTime()))
		}
		close(m.waited)
	}()
	// Bootstrap handshake runs before the dispatcher exists, so plain
	// deadline reads on the conn are safe here.
	deadline := time.Now().Add(sup.StartTimeout)
	f, err := recvTimeout(m.conn, deadline)
	if err != nil {
		m.destroy(err)
		return nil, core.NewFault(core.FaultExecutor, "start", m.exitError(err))
	}
	if f.typ != msgReady {
		m.destroy(errMuxProtocol)
		return nil, core.Faultf(core.FaultProtocol, "start", "unexpected first message %d", f.typ)
	}
	// Control-stream open: flips the child into multiplexed mode.
	buf := binary.AppendUvarint(nil, 0)
	buf = append(buf, streamCtl)
	if err := m.conn.send(msgOpenStream, buf); err != nil {
		m.destroy(err)
		return nil, core.NewFault(core.FaultExecutor, "start", m.exitError(err))
	}
	f, err = recvTimeout(m.conn, deadline)
	if err != nil {
		m.destroy(err)
		return nil, core.NewFault(core.FaultExecutor, "start", m.exitError(err))
	}
	if f.typ != msgReady {
		m.destroy(errMuxProtocol)
		return nil, core.Faultf(core.FaultProtocol, "start", "unexpected mux handshake reply %d", f.typ)
	}
	go m.dispatch()
	return m, nil
}

var errMuxProtocol = fmt.Errorf("isolate: multiplexed protocol violation")

// recvTimeout reads one frame with a deadline; used only before the
// dispatcher starts (afterwards the dispatcher owns the read side).
func recvTimeout(c *conn, deadline time.Time) (frame, error) {
	type res struct {
		f   frame
		err error
	}
	ch := make(chan res, 1)
	go func() {
		f, err := c.recv()
		ch <- res{f, err}
	}()
	d := time.Until(deadline)
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.f, r.err
	case <-t.C:
		return frame{}, fmt.Errorf("isolate: no handshake within %v", d.Round(time.Millisecond))
	}
}

// dispatch owns the read side: it strips the stream tag from every
// frame and routes it to the owning stream (pongs to the ping waiter).
// Any read error or protocol violation destroys the whole process.
func (m *MuxExecutor) dispatch() {
	for {
		f, err := m.conn.recv()
		if err != nil {
			m.destroy(m.exitError(err))
			return
		}
		r := &preader{buf: f.payload}
		sid := r.uvarint()
		if r.err != nil {
			m.destroy(fmt.Errorf("%w: untagged frame %d", errMuxProtocol, f.typ))
			return
		}
		if f.typ == msgPong && sid == 0 {
			select {
			case m.pongCh <- struct{}{}:
			default:
			}
			continue
		}
		m.mu.Lock()
		s := m.streams[sid]
		m.mu.Unlock()
		if s == nil {
			// A frame for a stream closed parent-side mid-flight (e.g. a
			// result racing CloseStream). Dropping it is safe: nobody is
			// waiting, and the child has no per-frame state.
			continue
		}
		buf := append(s.scratch[s.si][:0], f.payload[r.off:]...)
		s.scratch[s.si] = buf
		s.si ^= 1
		select {
		case s.ch <- muxFrame{typ: f.typ, payload: buf}:
		default:
			m.destroy(fmt.Errorf("%w: stream %d flooded (frame %d)", errMuxProtocol, sid, f.typ))
			return
		}
	}
}

// destroy kills and reaps the child, waking every waiter exactly once.
func (m *MuxExecutor) destroy(cause error) {
	m.deadOnce.Do(func() {
		m.deadErr = cause
		select {
		case <-m.waited:
		default:
			m.cmd.Process.Kill()
			cKills.Inc()
		}
		close(m.dead)
		go func() { <-m.waited }() // detach the reap; no zombie either way
	})
}

// exitError augments a pipe error with the child's exit status when it
// has already been reaped.
func (m *MuxExecutor) exitError(err error) error {
	select {
	case <-m.waited:
		if m.waitErr != nil {
			return fmt.Errorf("executor died: %v (pipe: %v)", m.waitErr, err)
		}
		return fmt.Errorf("executor exited (pipe: %v)", err)
	default:
		return err
	}
}

// Alive reports whether the process has not been destroyed.
func (m *MuxExecutor) Alive() bool {
	select {
	case <-m.dead:
		return false
	default:
		return true
	}
}

// Done is closed when the executor process dies for any reason; the
// fleet supervisor watches it to replace dead workers.
func (m *MuxExecutor) Done() <-chan struct{} { return m.dead }

// DeadErr reports why the executor died (nil while alive).
func (m *MuxExecutor) DeadErr() error {
	select {
	case <-m.dead:
		return m.deadErr
	default:
		return nil
	}
}

// PID returns the child's process id.
func (m *MuxExecutor) PID() int { return m.cmd.Process.Pid }

// Resident reports the number of open streams.
func (m *MuxExecutor) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}

// WarmCount reports how many (tenant, UDF, token) bindings this
// executor is believed to hold warm.
func (m *MuxExecutor) WarmCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.warm)
}

// HasWarm reports whether the executor is believed to hold the keyed
// binding warm (the child may have evicted it; a cold warm-open falls
// back to a full setup transparently).
func (m *MuxExecutor) HasWarm(tenant, name, token string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.warm[warmKey(tenant, name, token)]
	return ok
}

// LastPingAge reports the time since the last successful ping (a large
// value before the first ping succeeds).
func (m *MuxExecutor) LastPingAge() time.Duration {
	m.mu.Lock()
	last := m.lastPong
	m.mu.Unlock()
	if last == 0 {
		return time.Duration(1<<62 - 1)
	}
	return time.Since(time.Unix(0, last))
}

// send writes one tagged frame under the write lock, destroying the
// executor on pipe errors.
func (m *MuxExecutor) send(op string, typ byte, payload []byte) error {
	if !m.Alive() {
		return core.NewFault(core.FaultExecutorLost, op, m.lostErr())
	}
	m.wmu.Lock()
	err := m.conn.send(typ, payload)
	m.wmu.Unlock()
	if err != nil {
		m.destroy(m.exitError(err))
		return core.NewFault(core.FaultExecutorLost, op, m.exitError(err))
	}
	return nil
}

// lostErr describes the executor's death for sibling-stream faults.
func (m *MuxExecutor) lostErr() error {
	if m.deadErr != nil {
		return fmt.Errorf("shared executor lost: %v", m.deadErr)
	}
	return fmt.Errorf("shared executor lost")
}

// Ping round-trips a control-stream health probe. A failed or timed-out
// ping destroys the executor.
func (m *MuxExecutor) Ping(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = m.sup.PingTimeout
	}
	// Drain a stale pong from a previously timed-out probe.
	select {
	case <-m.pongCh:
	default:
	}
	if err := m.send("ping", msgPing, binary.AppendUvarint(nil, 0)); err != nil {
		return err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-m.pongCh:
		m.mu.Lock()
		m.lastPong = time.Now().UnixNano()
		m.mu.Unlock()
		return nil
	case <-m.dead:
		return core.NewFault(core.FaultExecutorLost, "ping", m.lostErr())
	case <-t.C:
		cTimeouts.Inc()
		m.destroy(fmt.Errorf("ping timeout after %v", timeout))
		return core.Faultf(core.FaultTimeout, "ping", "no pong within %v (executor killed)", timeout)
	}
}

// OpenStream binds a new stream for (tenant, name, token). It first
// attempts a warm open when the executor is believed to hold the
// binding; a cold miss (the child evicted it) falls back to the full
// setup transparently. The returned warm flag reports whether setup
// work was skipped.
func (m *MuxExecutor) OpenStream(tenant, name, token string, setup StreamSetup) (*MuxStream, bool, error) {
	key := warmKey(tenant, name, token)
	m.mu.Lock()
	if !m.Alive() {
		m.mu.Unlock()
		return nil, false, core.NewFault(core.FaultExecutorLost, "setup", m.lostErr())
	}
	m.nextID++
	s := &MuxStream{m: m, id: m.nextID, key: key, ch: make(chan muxFrame, 2)}
	m.streams[s.id] = s
	_, tryWarm := m.warm[key]
	m.mu.Unlock()

	deadline := time.Now().Add(m.sup.SetupTimeout)
	if tryWarm {
		err := m.openAttempt(s, streamWarm, tenant, name, token, setup, deadline)
		if err == nil {
			return s, true, nil
		}
		if core.FaultClassOf(err) != core.FaultUDF {
			m.dropStream(s)
			return nil, false, err
		}
		// Cold: the child evicted the binding. Fall through to full
		// setup on the same stream ID (the failed open left no stream
		// state child-side).
		m.mu.Lock()
		delete(m.warm, key)
		m.mu.Unlock()
	}
	kind := streamNative
	if setup.VM != nil {
		kind = streamVM
	}
	if err := m.openAttempt(s, kind, tenant, name, token, setup, deadline); err != nil {
		m.dropStream(s)
		return nil, false, err
	}
	m.mu.Lock()
	m.warm[key] = struct{}{}
	m.mu.Unlock()
	return s, false, nil
}

// openAttempt sends one msgOpenStream and waits for the tagged reply.
func (m *MuxExecutor) openAttempt(s *MuxStream, kind byte, tenant, name, token string, setup StreamSetup, deadline time.Time) error {
	buf := takePayload()
	buf = binary.AppendUvarint(buf, s.id)
	buf = append(buf, kind)
	buf = appendString(buf, tenant)
	buf = appendString(buf, name)
	buf = appendString(buf, token)
	switch kind {
	case streamNative:
		buf = appendString(buf, setup.Native)
	case streamVM:
		buf = appendBytes(buf, setup.VM.ClassBytes)
		buf = appendString(buf, setup.VM.Method)
		buf = binary.AppendVarint(buf, setup.VM.Limits.Fuel)
		buf = binary.AppendVarint(buf, setup.VM.Limits.MaxAllocBytes)
		buf = binary.AppendVarint(buf, int64(setup.VM.Limits.MaxCallDepth))
	}
	err := m.send("setup", msgOpenStream, buf)
	putPayload(buf)
	if err != nil {
		return err
	}
	f, err := s.await("setup", deadline)
	if err != nil {
		return err
	}
	switch f.typ {
	case msgReady:
		return nil
	case msgError:
		r := &preader{buf: f.payload}
		return core.Faultf(core.FaultUDF, "setup", "executor setup failed: %s", r.str())
	default:
		m.destroy(fmt.Errorf("%w: unexpected setup reply %d", errMuxProtocol, f.typ))
		return core.Faultf(core.FaultProtocol, "setup", "unexpected setup reply %d", f.typ)
	}
}

// dropStream unregisters a stream parent-side (no wire traffic).
func (m *MuxExecutor) dropStream(s *MuxStream) {
	m.mu.Lock()
	delete(m.streams, s.id)
	m.mu.Unlock()
}

// CloseStream releases a stream: fire-and-forget, the child drops the
// stream but keeps its binding warm for the next open.
func (m *MuxExecutor) CloseStream(s *MuxStream) {
	m.dropStream(s)
	if m.Alive() {
		buf := takePayload()
		buf = binary.AppendUvarint(buf, s.id)
		_ = m.send("close", msgCloseStream, buf)
		putPayload(buf)
	}
}

// await blocks for this stream's next routed frame, the executor's
// death, or the deadline — whichever comes first. Expiry destroys the
// whole process (the child is single-threaded; a wedged invoke wedges
// every stream).
func (s *MuxStream) await(op string, deadline time.Time) (muxFrame, error) {
	// Prefer a frame that already arrived over a racing death notice.
	select {
	case f := <-s.ch:
		return f, nil
	default:
	}
	if deadline.IsZero() {
		select {
		case f := <-s.ch:
			return f, nil
		case <-s.m.dead:
			return muxFrame{}, core.NewFault(core.FaultExecutorLost, op, s.m.lostErr())
		}
	}
	d := time.Until(deadline)
	if d <= 0 {
		cTimeouts.Inc()
		s.m.destroy(fmt.Errorf("deadline expired during %s", op))
		return muxFrame{}, core.Faultf(core.FaultTimeout, op, "deadline expired before %s reply", op)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case f := <-s.ch:
		return f, nil
	case <-s.m.dead:
		return muxFrame{}, core.NewFault(core.FaultExecutorLost, op, s.m.lostErr())
	case <-t.C:
		cTimeouts.Inc()
		s.m.destroy(fmt.Errorf("no %s reply within %v", op, d.Round(time.Millisecond)))
		return muxFrame{}, core.Faultf(core.FaultTimeout, op, "no reply within %v (executor killed)", d.Round(time.Millisecond))
	}
}

// sendTraceCtx precedes a traced invocation with a tagged msgTraceCtx
// frame arming span recording on this stream.
func (s *MuxStream) sendTraceCtx(ctx *core.Ctx) (bool, error) {
	if ctx == nil || !ctx.Trace.Detailed() {
		return false, nil
	}
	buf := takePayload()
	buf = binary.AppendUvarint(buf, s.id)
	buf = binary.AppendUvarint(buf, uint64(ctx.Trace.ID()))
	buf = binary.AppendUvarint(buf, 0) // parent span ID (reserved)
	err := s.m.send("invoke", msgTraceCtx, buf)
	putPayload(buf)
	if err != nil {
		return false, err
	}
	return true, nil
}

// Invoke evaluates one row on this stream, exactly mirroring
// Executor.Invoke's semantics (callbacks served inline, merged
// deadline, cloned result) over the tagged protocol.
func (s *MuxStream) Invoke(ctx *core.Ctx, args []types.Value) (types.Value, error) {
	cInvocations.Inc()
	deadline := deadlineFor(s.m.sup.InvokeTimeout, ctx)
	traced, err := s.sendTraceCtx(ctx)
	if err != nil {
		return types.Value{}, err
	}
	buf := takePayload()
	buf = binary.AppendUvarint(buf, s.id)
	buf = binary.AppendUvarint(buf, uint64(len(args)))
	for _, a := range args {
		buf = types.EncodeValue(buf, a)
	}
	err = s.m.send("invoke", msgInvoke, buf)
	putPayload(buf)
	if err != nil {
		return types.Value{}, err
	}
	for {
		f, err := s.await("invoke", deadline)
		if err != nil {
			return types.Value{}, err
		}
		switch f.typ {
		case msgResult:
			r := &preader{buf: f.payload}
			v := r.value()
			if r.err != nil {
				s.m.destroy(fmt.Errorf("%w: bad result frame", errMuxProtocol))
				return types.Value{}, core.NewFault(core.FaultProtocol, "invoke", r.err)
			}
			if traced {
				if recs := decodeChildSpans(r); len(recs) > 0 {
					ctx.Trace.Merge(recs, s.m.PID())
				}
			}
			return v.Clone(), nil
		case msgError:
			r := &preader{buf: f.payload}
			return types.Value{}, core.Faultf(core.FaultUDF, "invoke", "UDF failed: %s", r.str())
		case msgCallback:
			if err := s.serveCallback(ctx, f.payload); err != nil {
				return types.Value{}, err
			}
		default:
			s.m.destroy(fmt.Errorf("%w: unexpected message %d during invoke", errMuxProtocol, f.typ))
			return types.Value{}, core.Faultf(core.FaultProtocol, "invoke", "unexpected message %d during invoke", f.typ)
		}
	}
}

// InvokeBatch evaluates len(out) rows in one crossing on this stream,
// mirroring Executor.InvokeBatch.
func (s *MuxStream) InvokeBatch(ctx *core.Ctx, arity int, args []types.Value, out []core.BatchResult) error {
	cInvocations.Inc()
	deadline := deadlineFor(s.m.sup.InvokeTimeout, ctx)
	traced, err := s.sendTraceCtx(ctx)
	if err != nil {
		return err
	}
	buf := takePayload()
	buf = binary.AppendUvarint(buf, s.id)
	buf = binary.AppendUvarint(buf, uint64(len(out)))
	buf = binary.AppendUvarint(buf, uint64(arity))
	for _, a := range args {
		buf = types.EncodeValue(buf, a)
	}
	err = s.m.send("invoke", msgInvokeBatch, buf)
	putPayload(buf)
	if err != nil {
		return err
	}
	for {
		f, err := s.await("invoke", deadline)
		if err != nil {
			return err
		}
		switch f.typ {
		case msgResultBatch:
			return s.decodeBatchResult(f.payload, out, ctx, traced)
		case msgError:
			r := &preader{buf: f.payload}
			return core.Faultf(core.FaultUDF, "invoke", "UDF failed: %s", r.str())
		case msgCallback:
			if err := s.serveCallback(ctx, f.payload); err != nil {
				return err
			}
		default:
			s.m.destroy(fmt.Errorf("%w: unexpected message %d during batch invoke", errMuxProtocol, f.typ))
			return core.Faultf(core.FaultProtocol, "invoke", "unexpected message %d during batch invoke", f.typ)
		}
	}
}

// decodeBatchResult unpacks a msgResultBatch payload into out, cloning
// values out of the routing scratch.
func (s *MuxStream) decodeBatchResult(payload []byte, out []core.BatchResult, ctx *core.Ctx, traced bool) error {
	r := &preader{buf: payload}
	n := int(r.uvarint())
	if r.err == nil && n != len(out) {
		s.m.destroy(fmt.Errorf("%w: batch reply has %d rows, expected %d", errMuxProtocol, n, len(out)))
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
			s.m.destroy(fmt.Errorf("%w: %v", errMuxProtocol, r.err))
			return core.NewFault(core.FaultProtocol, "invoke", r.err)
		}
	}
	decodeChildCPU(r, ctx)
	if traced {
		if recs := decodeChildSpans(r); len(recs) > 0 {
			ctx.Trace.Merge(recs, s.m.PID())
		}
	}
	return nil
}

// serveCallback answers one tagged callback request from this stream's
// UDF (the dispatcher routed it here by stream ID).
func (s *MuxStream) serveCallback(ctx *core.Ctx, payload []byte) error {
	r := &preader{buf: payload}
	op := r.byte()
	handle := r.varint()
	off := r.varint()
	length := r.varint()
	if r.err != nil {
		s.m.destroy(fmt.Errorf("%w: bad callback frame", errMuxProtocol))
		return core.NewFault(core.FaultProtocol, "callback", r.err)
	}
	reply := func(payload []byte) error {
		buf := append(binary.AppendUvarint(takePayload(), s.id), payload...)
		err := s.m.send("callback", msgCBResult, buf)
		putPayload(buf)
		return err
	}
	fail := func(err error) error {
		return reply(appendString([]byte{0}, err.Error()))
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
		return reply(binary.AppendVarint([]byte{1}, n))
	case cbGet:
		b, err := ctx.Callback.Get(handle, off)
		if err != nil {
			return fail(err)
		}
		return reply(binary.AppendVarint([]byte{1}, int64(b)))
	case cbRead:
		data, err := ctx.Callback.Read(handle, off, length)
		if err != nil {
			return fail(err)
		}
		return reply(appendBytes([]byte{1}, data))
	case cbTouch:
		if err := ctx.Callback.Touch(handle); err != nil {
			return fail(err)
		}
		return reply(binary.AppendVarint([]byte{1}, 0))
	default:
		return fail(fmt.Errorf("unknown callback op %d", op))
	}
}

// Close shuts the multiplexed executor down: polite tagged msgShutdown,
// grace period, then SIGKILL — mirroring Executor.Close.
func (m *MuxExecutor) Close() error {
	if m.Alive() {
		m.wmu.Lock()
		_ = m.conn.send(msgShutdown, binary.AppendUvarint(nil, 0))
		m.wmu.Unlock()
		t := time.NewTimer(m.sup.ShutdownGrace)
		defer t.Stop()
		select {
		case <-m.waited:
		case <-t.C:
		}
	}
	m.destroy(fmt.Errorf("closed"))
	<-m.waited
	return nil
}
