// The tracker endpoint: the binary register/renew/leave/candidates
// protocol of wire.go served over TCP, plus the matching client.
//
// Server properties:
//
//   - one length-prefixed frame per request, decoded and answered from
//     per-connection reusable buffers (steady state allocates only the
//     candidate entries themselves);
//   - explicit read/write/idle deadlines on every connection, so a slow
//     or hung client can never pin a handler goroutine;
//   - per-IP registration bounds enforced by the registry (the
//     connection's remote IP is the owner key);
//   - a SetDown switch answering stUnavailable — the graceful-
//     degradation hook the chaos harness and the internal/faults outage
//     windows drive, which clients retry through with capped-
//     exponential backoff.
package netboot

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"coolstream/internal/faults"
)

// ErrUnavailable marks a tracker-side refusal that is worth retrying
// (outage window, SetDown, overload), as opposed to a caller bug.
var ErrUnavailable = errors.New("netboot: tracker unavailable")

// UnavailableError is the concrete retryable refusal: it satisfies
// errors.Is(err, ErrUnavailable) and carries the server's retry-after
// hint (0 = none; back off at the client's own pace). Retry loops —
// the client's own and netpeer's join engine — honour the hint.
type UnavailableError struct {
	Msg        string
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("%v: %s", ErrUnavailable, e.Msg)
}

// Is makes errors.Is(err, ErrUnavailable) hold.
func (e *UnavailableError) Is(target error) bool { return target == ErrUnavailable }

// TCPServerConfig parameterises the binary tracker endpoint. The zero
// value selects production defaults.
type TCPServerConfig struct {
	// ReadTimeout bounds reading one request frame once its header has
	// arrived (default 5s).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response frame (default 5s).
	WriteTimeout time.Duration
	// IdleTimeout closes a connection with no complete request for this
	// long (default 60s).
	IdleTimeout time.Duration
	// SweepEvery is the lease-sweep period (default LeaseTTL/4, floor
	// 250ms; expiry-disabled registries never sweep).
	SweepEvery time.Duration
}

func (c *TCPServerConfig) applyDefaults(ttl time.Duration) {
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.SweepEvery <= 0 && ttl > 0 {
		c.SweepEvery = ttl / 4
		if c.SweepEvery < 250*time.Millisecond {
			c.SweepEvery = 250 * time.Millisecond
		}
	}
}

// TCPServer serves the binary tracker protocol over TCP.
type TCPServer struct {
	reg  *Registry
	cfg  TCPServerConfig
	down atomic.Bool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewTCPServer wraps reg with a binary TCP endpoint.
func NewTCPServer(reg *Registry, cfg TCPServerConfig) *TCPServer {
	cfg.applyDefaults(reg.LeaseTTL())
	return &TCPServer{
		reg:   reg,
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
}

// Registry returns the backing registry.
func (s *TCPServer) Registry() *Registry { return s.reg }

// SetDown toggles the outage switch: while down, every request answers
// stUnavailable (retryable) without touching the registry.
func (s *TCPServer) SetDown(down bool) { s.down.Store(down) }

// Listen binds addr, starts serving in the background, and returns the
// bound address (use "127.0.0.1:0" for an ephemeral port).
func (s *TCPServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("netboot: tracker server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve(ln)
	}()
	if s.cfg.SweepEvery > 0 {
		s.wg.Add(1)
		go s.sweepLoop()
	}
	return ln.Addr().String(), nil
}

func (s *TCPServer) sweepLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.reg.Sweep()
		case <-s.done:
			return
		}
	}
}

func (s *TCPServer) serve(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return // Close shut the listener (or it failed fatally)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// handle runs one connection's request loop with reusable buffers.
func (s *TCPServer) handle(c net.Conn) {
	defer c.Close()
	owner, _, err := net.SplitHostPort(c.RemoteAddr().String())
	if err != nil {
		owner = c.RemoteAddr().String()
	}
	br := bufio.NewReaderSize(c, 4*1024)
	var reqBuf, respBuf, frameBuf []byte
	for {
		// The idle deadline covers waiting for the next request; once
		// bytes flow, the (tighter) read deadline bounds the frame.
		c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if _, err := br.Peek(1); err != nil {
			return
		}
		c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		var body []byte
		reqBuf, body, err = readTrackerFrame(br, reqBuf)
		if err != nil {
			return // framing violation or disconnect: drop the conn
		}
		respBuf = s.respond(respBuf[:0], body, owner)
		c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		frameBuf, err = writeTrackerFrame(c, frameBuf, respBuf)
		if err != nil {
			return
		}
	}
}

// respond appends the response body for one request body to dst.
func (s *TCPServer) respond(dst, body []byte, owner string) []byte {
	req, err := decodeReq(body)
	if err != nil {
		return appendErrResp(dst, stBadRequest, err.Error())
	}
	retryMs := uint32(s.reg.RetryAfter() / time.Millisecond)
	if s.down.Load() {
		return appendUnavailableResp(dst, "tracker down", retryMs)
	}
	release := s.reg.BeginOp()
	defer release()
	switch req.op {
	case opRegister:
		if !s.reg.AdmitRegister(req.id) {
			return appendUnavailableResp(dst, "tracker overloaded", retryMs)
		}
		ttl, err := s.reg.Register(req.id, req.addr, owner)
		if errors.Is(err, ErrOwnerLimit) {
			return appendErrResp(dst, stOwnerLimit, err.Error())
		}
		if err != nil {
			return appendErrResp(dst, stBadRequest, err.Error())
		}
		return appendRegisterResp(dst, uint32(ttl/time.Millisecond))
	case opLeave:
		s.reg.Leave(req.id)
		return append(dst, stOK)
	case opCandidates:
		if req.n == 0 {
			return appendErrResp(dst, stBadRequest, "candidates: n must be >= 1")
		}
		if !s.reg.AdmitCandidates() {
			return appendUnavailableResp(dst, "tracker overloaded", retryMs)
		}
		return appendCandidatesResp(dst, s.reg.Candidates(req.n, req.exclude))
	case opCount:
		return appendCountResp(dst, uint32(s.reg.Count()))
	}
	return appendErrResp(dst, stBadRequest, "unknown op")
}

// Close stops the listener, closes live connections, and waits for the
// handler goroutines.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// TCPClient speaks the binary tracker protocol. It satisfies
// netpeer.Bootstrap, keeps one connection pooled across requests
// (redialing lazily after errors), and — with SetBackoff — retries
// network errors and stUnavailable answers through capped-exponential
// deterministic backoff. The backoff sleep honours SetStop, so a peer
// shutting down mid-outage never blocks on a retry pause.
type TCPClient struct {
	addr    string
	timeout time.Duration
	dial    faults.DialFunc

	backoff     faults.Backoff
	maxAttempts int
	retryKey    uint64
	stop        <-chan struct{}

	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader
	reqBuf   []byte
	frameBuf []byte
	readBuf  []byte
	retried  int
	attempts int
	closed   bool
}

// NewTCPClient targets the tracker at addr (host:port).
func NewTCPClient(addr string) *TCPClient {
	return &TCPClient{
		addr:        addr,
		timeout:     5 * time.Second,
		dial:        net.DialTimeout,
		maxAttempts: 1,
	}
}

// SetBackoff enables retries: up to maxAttempts tries per request with
// b's capped-exponential schedule between them; key seeds the
// deterministic jitter (use the peer's ID).
func (c *TCPClient) SetBackoff(b faults.Backoff, maxAttempts int, key uint64) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	c.mu.Lock()
	c.backoff = b
	c.maxAttempts = maxAttempts
	c.retryKey = key
	c.mu.Unlock()
}

// SetStop installs a cancellation channel: a close aborts any backoff
// pause (and fails the request) immediately. netpeer wires its node
// done channel here so Close/Abort never waits out a tracker outage.
func (c *TCPClient) SetStop(stop <-chan struct{}) {
	c.mu.Lock()
	c.stop = stop
	c.mu.Unlock()
}

// SetDialer overrides the dial function (faults.Injector.WrapDial
// carries outage/NAT fault plans onto this client; tests stub dials).
func (c *TCPClient) SetDialer(d faults.DialFunc) {
	if d == nil {
		d = net.DialTimeout
	}
	c.mu.Lock()
	c.dial = d
	c.mu.Unlock()
}

// SetTimeout overrides the per-request I/O deadline (default 5s).
func (c *TCPClient) SetTimeout(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// RetryStats returns (requests that needed a retry, total retry
// pauses).
func (c *TCPClient) RetryStats() (retried, attempts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retried, c.attempts
}

// Close drops the pooled connection and fails subsequent requests.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
	return nil
}

func (c *TCPClient) dropConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// roundTrip sends one request body and decodes one response body,
// retrying per the backoff policy. encode appends the request to the
// reusable buffer; decode consumes the response body. Both run under
// the client lock: the protocol is strictly one frame in flight.
func (c *TCPClient) roundTrip(encode func([]byte) []byte, decode func(*scanner) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if c.closed {
			return fmt.Errorf("netboot: tracker client closed")
		}
		err := c.tryOnceLocked(encode, decode)
		if err == nil {
			return nil
		}
		// Terminal protocol answers (bad request, owner limit) are
		// caller bugs or policy; retrying cannot help.
		if !retryable(err) {
			return err
		}
		lastErr = err
		if attempt >= c.maxAttempts || !c.backoff.Enabled() {
			return lastErr
		}
		if attempt == 1 {
			c.retried++
		}
		c.attempts++
		d := c.backoff.Duration(attempt, c.retryKey)
		// A shed tracker knows its own recovery horizon better than our
		// schedule does: never retry before its hint.
		var ue *UnavailableError
		if errors.As(lastErr, &ue) && ue.RetryAfter > d {
			d = ue.RetryAfter
		}
		stop := c.stop
		c.mu.Unlock()
		stopped := !sleepOrStop(d, stop)
		c.mu.Lock()
		if stopped {
			return fmt.Errorf("netboot: tracker retry aborted by stop: %w", lastErr)
		}
	}
}

// retryable reports whether err is worth another attempt: network
// errors and explicit unavailable answers are; protocol rejections are
// not.
func retryable(err error) bool {
	if errors.Is(err, ErrUnavailable) {
		return true
	}
	var terminal *terminalError
	return !errors.As(err, &terminal)
}

// terminalError wraps a non-retryable tracker answer.
type terminalError struct{ err error }

func (t *terminalError) Error() string { return t.err.Error() }
func (t *terminalError) Unwrap() error { return t.err }

func (c *TCPClient) tryOnceLocked(encode func([]byte) []byte, decode func(*scanner) error) error {
	if c.conn == nil {
		conn, err := c.dial("tcp", c.addr, c.timeout)
		if err != nil {
			return fmt.Errorf("netboot: dial tracker %s: %w", c.addr, err)
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 4*1024)
	}
	c.reqBuf = encode(c.reqBuf[:0])
	deadline := time.Now().Add(c.timeout)
	c.conn.SetDeadline(deadline)
	var err error
	c.frameBuf, err = writeTrackerFrame(c.conn, c.frameBuf, c.reqBuf)
	if err != nil {
		c.dropConnLocked()
		return fmt.Errorf("netboot: write tracker frame: %w", err)
	}
	var body []byte
	c.readBuf, body, err = readTrackerFrame(c.br, c.readBuf)
	if err != nil {
		c.dropConnLocked()
		return fmt.Errorf("netboot: read tracker frame: %w", err)
	}
	sc := scanner{b: body}
	st := sc.u8("status")
	if st != stOK {
		msg := sc.str("error message")
		var retryMs uint32
		if st == stUnavailable {
			retryMs = sc.u32("retry-after")
		}
		if err := sc.done(); err != nil {
			c.dropConnLocked()
			return err
		}
		if st == stUnavailable {
			return &UnavailableError{Msg: msg, RetryAfter: time.Duration(retryMs) * time.Millisecond}
		}
		return &terminalError{err: respError(st, msg)}
	}
	if err := decode(&sc); err != nil {
		c.dropConnLocked()
		return err
	}
	return nil
}

// RegisterLease announces (or renews) id's listen address and returns
// the granted lease duration (0 = no expiry).
func (c *TCPClient) RegisterLease(id int32, addr string) (time.Duration, error) {
	var lease time.Duration
	err := c.roundTrip(
		func(dst []byte) []byte { return appendRegisterReq(dst, id, addr) },
		func(sc *scanner) error {
			ms := sc.u32("lease")
			if err := sc.done(); err != nil {
				return err
			}
			lease = time.Duration(ms) * time.Millisecond
			return nil
		})
	return lease, err
}

// Register announces a peer's listen address (netpeer.Bootstrap).
func (c *TCPClient) Register(id int32, addr string) error {
	_, err := c.RegisterLease(id, addr)
	return err
}

// Leave removes a peer from the registry.
func (c *TCPClient) Leave(id int32) error {
	return c.roundTrip(
		func(dst []byte) []byte { return appendLeaveReq(dst, id) },
		func(sc *scanner) error { return sc.done() })
}

// Candidates fetches up to n live candidates, excluding the caller.
func (c *TCPClient) Candidates(n int, exclude int32) ([]Entry, error) {
	if n <= 0 {
		n = DefaultCandidates
	}
	if n > 0xffff {
		n = 0xffff
	}
	var out []Entry
	err := c.roundTrip(
		func(dst []byte) []byte { return appendCandidatesReq(dst, n, exclude) },
		func(sc *scanner) error {
			cnt := int(sc.u16("entry count"))
			out = make([]Entry, 0, cnt)
			for i := 0; i < cnt; i++ {
				id := sc.i32("entry id")
				addr := sc.str("entry addr")
				out = append(out, Entry{ID: id, Addr: addr})
			}
			return sc.done()
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Count returns the tracker's registered-peer count.
func (c *TCPClient) Count() (int, error) {
	var n int
	err := c.roundTrip(
		func(dst []byte) []byte { return appendCountReq(dst) },
		func(sc *scanner) error {
			n = int(sc.u32("count"))
			return sc.done()
		})
	return n, err
}

// sleepOrStop pauses for d, returning false early if stop closes
// first (stop may be nil: plain sleep).
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	if stop == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
