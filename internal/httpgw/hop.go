package httpgw

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// Hop connections (docs/PROTOCOL.md, "Hop connections"): a node-to-node
// exchange is the same HTTP/1.1 message as ever, but only its first one
// passes through net/http. The upstream client offers an upgrade on that
// real request; a Node answers 101, serves it, and from then on serves the
// connection from its own loop, each message in one flush. The origin and
// every other server decline, and stay on HTTP.
const (
	hopProtocol = "cascade-hop/1"
	// A server closes a hop connection idle for hopServerIdle (Apache's
	// KeepAliveTimeout default); a client never reuses one idle for
	// hopClientIdle, so it never writes into that close.
	hopServerIdle = 5 * time.Second
	hopClientIdle = 4 * time.Second
	hopBufSize    = 8 << 10                           // a head and a 4 KiB body leave in one write
	hopMaxHead    = http.DefaultMaxHeaderBytes + 4096 // net/http's cap, with its slack
)

// Buffers belong to an exchange, never to an idle connection.
var (
	hopReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, hopBufSize) }}
	hopWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, hopBufSize) }}
)

// hopConns holds the hop connections a node accepted, by server: a
// hijacked connection is no longer its server's to track, so each server's
// Shutdown closes the ones accepted through it.
type hopConns struct {
	mu    sync.Mutex
	conns map[*http.Server]map[*hopServerConn]struct{}
}

// accept takes up a hop offer: it hijacks the connection, answers 101,
// serves r with first, and serves the connection from then on. It reports
// false, with w untouched, when r cannot be upgraded.
func (s *hopConns) accept(w http.ResponseWriter, r *http.Request, first http.Handler) bool {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if srv == nil || r.ProtoMajor != 1 || r.Body != http.NoBody {
		return false
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return false
	}
	if rw.Reader.Buffered() > 0 { // the client sent past its offer
		conn.Close()
		return true
	}
	h := srv.Handler
	if h == nil {
		h = http.DefaultServeMux
	}
	hc := newHopServerConn(conn, h, context.WithoutCancel(r.Context()))
	hc.upgrade = true
	s.mu.Lock()
	if s.conns == nil {
		s.conns = make(map[*http.Server]map[*hopServerConn]struct{})
	}
	set, hooked := s.conns[srv]
	if !hooked {
		set = make(map[*hopServerConn]struct{})
		s.conns[srv] = set
	}
	set[hc] = struct{}{}
	s.mu.Unlock()
	if !hooked {
		srv.RegisterOnShutdown(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			for hc := range s.conns[srv] {
				hc.stop()
			}
		})
	}
	r.Header.Del("Upgrade")
	r.Header.Del("Connection")
	firstReq := hc.begin(r, first)
	go func() {
		hc.serve(firstReq)
		s.mu.Lock()
		delete(set, hc)
		s.mu.Unlock()
	}()
	return true
}

// hopServerConn is one accepted hop connection, served by two goroutines:
// read parses each request, hands it to serve, and then waits on the
// connection — a downstream sends nothing until it has its response, so
// any other end of that read is the downstream departing; serve runs the
// handler and writes the response.
type hopServerConn struct {
	conn    net.Conn
	handler http.Handler
	base    context.Context
	remote  string
	src     hopSource
	head    io.LimitedReader // src, within hopMaxHead
	one     [1]byte
	upgrade bool // the next response is the first: the 101 precedes it

	mu        sync.Mutex
	busy      bool
	cancel    context.CancelFunc
	idleSince time.Time
	closing   bool
}

type hopRequest struct {
	r      *http.Request
	h      http.Handler
	cancel context.CancelFunc
}

func newHopServerConn(conn net.Conn, h http.Handler, base context.Context) *hopServerConn {
	hc := &hopServerConn{conn: conn, handler: h, base: base, remote: conn.RemoteAddr().String(),
		src: hopSource{conn: conn}, idleSince: time.Now()}
	hc.head.R = &hc.src
	return hc
}

// begin gives r a context that the downstream's departure cancels, and
// marks the connection busy until serve has answered.
func (hc *hopServerConn) begin(r *http.Request, h http.Handler) hopRequest {
	ctx, cancel := context.WithCancel(hc.base)
	r = r.WithContext(ctx)
	r.RemoteAddr = hc.remote
	hc.mu.Lock()
	hc.busy, hc.cancel = true, cancel
	hc.mu.Unlock()
	return hopRequest{r, h, cancel}
}

// stop closes the connection now if it is idle, else after the response
// in service.
func (hc *hopServerConn) stop() {
	hc.mu.Lock()
	hc.closing = true
	idle := !hc.busy
	hc.mu.Unlock()
	if idle {
		hc.conn.Close()
	}
}

// serve answers first (when set) and every request read hands over; it
// returns once the connection is closed and read has exited.
func (hc *hopServerConn) serve(first hopRequest) {
	reqs, exited := make(chan hopRequest), make(chan struct{})
	hc.conn.SetReadDeadline(time.Now().Add(hopServerIdle)) //nolint:errcheck
	go func() {
		defer close(exited)
		defer close(reqs)
		for hc.read(reqs) {
		}
	}()
	ok := first.r == nil || hc.respond(first)
	for hr := range reqs {
		if ok = ok && hc.respond(hr); !ok {
			hr.cancel()
			hc.conn.Close()
		}
	}
	hc.conn.Close()
	<-exited
}

// read hands serve the next request and reports whether the connection
// stays open. It holds a buffer only while it parses a head; a request
// with a body, or one sent behind another, closes the connection.
func (hc *hopServerConn) read(reqs chan<- hopRequest) bool {
	if !hc.await() {
		return false
	}
	br := hopReaders.Get().(*bufio.Reader)
	br.Reset(&hc.head)
	hc.head.N = hopMaxHead
	r, err := http.ReadRequest(br)
	ok := err == nil && r.Body == http.NoBody && br.Buffered() == 0
	br.Reset(nil)
	hopReaders.Put(br)
	if ok {
		reqs <- hc.begin(r, hc.handler)
	}
	return ok
}

// await blocks on the first byte of the next request, holding no buffer.
// Any other end of the read is the downstream departing, or the server
// closing, and cancels the request in service; the deadline closes a
// connection idle for hopServerIdle.
func (hc *hopServerConn) await() bool {
	for {
		n, err := hc.conn.Read(hc.one[:])
		if n > 0 {
			hc.src.pending = hc.one[:n]
			hc.conn.SetReadDeadline(time.Now().Add(hopServerIdle)) //nolint:errcheck
			return true
		}
		hc.mu.Lock()
		until := time.Now().Add(hopServerIdle)
		if !hc.busy {
			until = hc.idleSince.Add(hopServerIdle)
		}
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) && !hc.closing && time.Now().Before(until) {
			hc.mu.Unlock()
			hc.conn.SetReadDeadline(until) //nolint:errcheck
			continue
		}
		if hc.cancel != nil {
			hc.cancel()
		}
		hc.mu.Unlock()
		return false
	}
}

// respond runs one exchange and reports whether the connection may carry
// another.
func (hc *hopServerConn) respond(hr hopRequest) (ok bool) {
	w := &hopWriter{h: make(http.Header), upgrade: hc.upgrade, bw: hopWriters.Get().(*bufio.Writer)}
	hc.upgrade = false
	w.bw.Reset(hc.conn)
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			log.Printf("httpgw: panic serving hop exchange %s: %v", hr.r.URL.Path, p)
		}
		w.bw.Reset(nil)
		hopWriters.Put(w.bw)
		hr.cancel()
		hc.mu.Lock()
		hc.busy, hc.cancel, hc.idleSince = false, nil, time.Now()
		ok = ok && !hc.closing
		hc.mu.Unlock()
	}()
	hr.h.ServeHTTP(w, hr.r)
	return w.finish() && !hr.r.Close
}

// hopSource yields the byte await took, then the connection.
type hopSource struct {
	conn    net.Conn
	pending []byte
}

func (s *hopSource) Read(p []byte) (int, error) {
	if len(s.pending) == 0 {
		return s.conn.Read(p)
	}
	n := copy(p, s.pending)
	s.pending = s.pending[n:]
	return n, nil
}

// hopWriter is a hop exchange's http.ResponseWriter: HTTP/1.1 syntax,
// Content-Length framing (chunked when the handler declares no length),
// no Date, no content sniffing, and the head written with the first body
// bytes, so that both leave in one flush.
type hopWriter struct {
	bw      *bufio.Writer
	h       http.Header
	status  int
	remain  int64 // declared length not yet written
	upgrade bool
	wrote   bool
	chunked bool
}

func (w *hopWriter) Header() http.Header { return w.h }

func (w *hopWriter) WriteHeader(code int) {
	if !w.wrote && w.status == 0 && code >= 200 && code <= 999 {
		w.status = code
	}
}

func (w *hopWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.writeHead(false)
	}
	if w.chunked {
		if len(p) == 0 {
			return 0, nil
		}
		var size [16]byte
		w.bw.Write(append(strconv.AppendInt(size[:0], int64(len(p)), 16), '\r', '\n')) //nolint:errcheck // errors stick: finish's Flush reports them
		n, err := w.bw.Write(p)
		w.bw.WriteString("\r\n") //nolint:errcheck
		return n, err
	}
	var short error
	if int64(len(p)) > w.remain {
		p, short = p[:w.remain], http.ErrContentLength
	}
	n, err := w.bw.Write(p)
	if w.remain -= int64(n); err == nil {
		err = short
	}
	return n, err
}

// writeHead writes the head; final: the handler has returned without a
// body.
func (w *hopWriter) writeHead(final bool) {
	w.wrote = true
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.upgrade {
		w.bw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + hopProtocol + "\r\n\r\n") //nolint:errcheck
	}
	if w.status != http.StatusNoContent && w.status != http.StatusNotModified {
		if v, err := strconv.ParseInt(w.h.Get("Content-Length"), 10, 64); err == nil && v >= 0 {
			w.remain = v
		} else if final {
			w.h.Set("Content-Length", "0")
		} else {
			w.h.Del("Content-Length")
			w.h.Set("Transfer-Encoding", "chunked")
			w.chunked = true
		}
	}
	var line [32]byte
	w.bw.Write(strconv.AppendInt(append(line[:0], "HTTP/1.1 "...), int64(w.status), 10)) //nolint:errcheck
	w.bw.WriteString(" " + http.StatusText(w.status) + "\r\n")                           //nolint:errcheck
	w.h.Write(w.bw)                                                                      //nolint:errcheck
	w.bw.WriteString("\r\n")                                                             //nolint:errcheck
}

// ReadFrom hands a body's remainder to the connection once the head has
// left: src must be an *io.LimitedReader within the declared length still
// owed, and then the bytes move by the connection's ReadFrom — a splice(2)
// when src reads a socket. Any other source takes Write, and its checks,
// through copyStream's pooled buffer.
func (w *hopWriter) ReadFrom(src io.Reader) (int64, error) {
	if !w.wrote {
		w.writeHead(false)
	}
	lr, ok := src.(*io.LimitedReader)
	if !ok || w.chunked || lr.N > w.remain {
		return copyStream(w, src)
	}
	if err := w.bw.Flush(); err != nil {
		return 0, err
	}
	n, err := w.bw.ReadFrom(lr) // empty: straight to the connection's ReadFrom
	w.remain -= n
	return n, err
}

// finish completes the message and flushes it: false when the connection
// cannot carry another (a write failed, or the body fell short).
func (w *hopWriter) finish() bool {
	if !w.wrote {
		w.writeHead(true)
	}
	if w.chunked {
		w.bw.WriteString("0\r\n\r\n") //nolint:errcheck
	}
	return w.bw.Flush() == nil && w.remain == 0
}

// NewUpstreamClient returns an upstream client with a budget of timeout
// per exchange (none when timeout ≤ 0): hop connections to cascade peers,
// its own tuned *http.Transport to every other upstream — a pool sized for
// a hop's concurrent misses, no proxy, no compression. The budget lives in
// the transport, not in http.Client.Timeout, which on any RoundTripper but
// *http.Transport costs a goroutine and a timer per request: it is a hop
// exchange's connection deadline, and the fallback's ResponseHeaderTimeout.
func NewUpstreamClient(timeout time.Duration) *http.Client {
	return &http.Client{Transport: &upstreamTransport{
		timeout: timeout,
		fallback: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			MaxIdleConns:          256,
			MaxIdleConnsPerHost:   64,
			IdleConnTimeout:       90 * time.Second,
			TLSHandshakeTimeout:   10 * time.Second,
			ExpectContinueTimeout: time.Second,
			ResponseHeaderTimeout: timeout,
			DisableCompression:    true,
		},
		peers: make(map[string]*hopPeer),
	}}
}

// upstreamTransport offers its first GET or body-less POST to each http://
// upstream a hop connection and remembers the answer: a 101 makes the
// upstream a hop peer, anything else an HTTP peer for good. At most one
// offer per unknown upstream is in flight; other exchanges meanwhile, and
// every other request, take the fallback.
type upstreamTransport struct {
	timeout  time.Duration
	fallback *http.Transport

	mu    sync.Mutex
	peers map[string]*hopPeer
}

type peerMode int8

const (
	peerUnknown peerMode = iota
	peerOffering
	peerHop
	peerHTTP
)

type hopPeer struct {
	mode peerMode
	idle []*hopClientConn // oldest first
}

type hopClientConn struct {
	net.Conn
	host  string
	since time.Time
}

func (t *upstreamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	hop := req.URL.Scheme == "http" && (req.Method == http.MethodGet || req.Method == http.MethodPost) &&
		(req.Body == nil || req.Body == http.NoBody)
	cc, offer := t.take(req.URL.Host, hop)
	if cc == nil && !offer {
		return t.fallback.RoundTrip(req)
	}
	if cc == nil {
		addr := req.URL.Host
		if req.URL.Port() == "" {
			addr = net.JoinHostPort(req.URL.Hostname(), "80")
		}
		c, err := t.fallback.DialContext(req.Context(), "tcp", addr)
		if err != nil {
			t.settle(req.URL.Host, peerUnknown)
			return nil, err
		}
		cc = &hopClientConn{Conn: c, host: req.URL.Host}
	}
	return t.exchange(cc, req, offer)
}

// take hands out the newest idle hop connection to host, or reports that
// the caller should dial one and offer the upgrade on it.
func (t *upstreamTransport) take(host string, hop bool) (*hopClientConn, bool) {
	if !hop {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[host]
	if p == nil {
		p = &hopPeer{}
		t.peers[host] = p
	}
	switch p.mode {
	case peerHop:
		if n := len(p.idle); n > 0 {
			cc := p.idle[n-1]
			if p.idle = p.idle[:n-1]; time.Since(cc.since) < hopClientIdle {
				return cc, false
			}
			for _, old := range append(p.idle, cc) { // the newest is too old, so all are
				old.Close()
			}
			p.idle = p.idle[:0]
		}
		return nil, true
	case peerUnknown:
		p.mode = peerOffering
		return nil, true
	}
	return nil, false
}

// settle records what an offer to host learned; peerUnknown only ends an
// offer that failed before the peer answered.
func (t *upstreamTransport) settle(host string, m peerMode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.peers[host]; p != nil && (m != peerUnknown || p.mode == peerOffering) {
		p.mode = m
	}
}

// exchange sends req on cc — with the upgrade offer when offer is set —
// and reads its response. The connection's deadline is the exchange's
// budget, and a done request context closes the connection.
func (t *upstreamTransport) exchange(cc *hopClientConn, req *http.Request, offer bool) (*http.Response, error) {
	if t.timeout > 0 {
		cc.SetDeadline(time.Now().Add(t.timeout)) //nolint:errcheck
	}
	b := &hopBody{t: t, cc: cc, keep: true}
	if ctx := req.Context(); ctx.Done() != nil {
		b.stop = context.AfterFunc(ctx, func() { cc.Close() })
	}
	out := req
	if offer {
		out = req.Clone(req.Context())
		out.Header.Set("Connection", "Upgrade")
		out.Header.Set("Upgrade", hopProtocol)
	}
	bw := hopWriters.Get().(*bufio.Writer)
	bw.Reset(cc)
	err := out.Write(bw)
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil)
	hopWriters.Put(bw)
	b.br = hopReaders.Get().(*bufio.Reader)
	b.br.Reset(cc)
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(b.br, req)
	}
	if err == nil && offer {
		if resp.StatusCode == http.StatusSwitchingProtocols && resp.Header.Get("Upgrade") == hopProtocol {
			t.settle(cc.host, peerHop)
			resp, err = http.ReadResponse(b.br, req)
		} else {
			t.settle(cc.host, peerHTTP)
			b.keep = false
		}
	}
	if err != nil {
		t.settle(cc.host, peerUnknown)
		b.finish(false)
		return nil, err
	}
	if b.keep {
		resp.Proto = hopProtocol
	}
	if b.keep = b.keep && !resp.Close; resp.Body == http.NoBody {
		b.finish(true)
	} else {
		b.rc, resp.Body, b.owed = resp.Body, b, resp.ContentLength
	}
	return resp, nil
}

// hopBody returns its connection to the idle list once read to the end,
// and closes it when the caller gives up early.
type hopBody struct {
	rc      io.ReadCloser
	t       *upstreamTransport
	cc      *hopClientConn
	br      *bufio.Reader
	stop    func() bool
	keep    bool
	owed    int64            // declared bytes not yet read; negative when none were declared
	lr      io.LimitedReader // the socket, within owed: what relayTo hands to ReadFrom
	spliced bool             // relayTo moved the body
	err     error            // after the end: what Read reports
}

func (b *hopBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	n, err := b.rc.Read(p)
	b.owed -= int64(n)
	if err != nil {
		b.finish(err == io.EOF)
		b.err = err
	}
	return n, err
}

// relayTo moves the rest of a declared-length body to dst: the bytes the
// reader already holds by Write, then the remainder by rf — dst's ReadFrom —
// as an *io.LimitedReader straight over the upstream socket, which the
// kernel splices when dst is a socket too. It reports false, having done
// nothing, unless the upstream is a TCP socket and the reader holds less
// than the declared rest. A short upstream is io.ErrUnexpectedEOF; either
// way the connection is pooled only after exactly the declared bytes.
func (b *hopBody) relayTo(dst io.Writer, rf io.ReaderFrom) (n int64, ok bool, err error) {
	tc, isTCP := b.cc.Conn.(*net.TCPConn)
	if b.err != nil || !isTCP || b.owed <= int64(b.br.Buffered()) {
		return 0, false, nil
	}
	b.spliced = true
	held, _ := b.br.Peek(b.br.Buffered())
	m, err := dst.Write(held)
	b.br.Discard(m) //nolint:errcheck // m ≤ Buffered
	n, b.owed = int64(m), b.owed-int64(m)
	if err == nil {
		b.lr = io.LimitedReader{R: tc, N: b.owed}
		var k int64
		k, err = rf.ReadFrom(&b.lr)
		n, b.owed = n+k, b.owed-k
		if err == nil && b.owed > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	b.finish(err == nil)
	if b.err = err; err == nil {
		b.err = io.EOF
	}
	return n, true, err
}

func (b *hopBody) Close() error {
	if b.err == nil {
		b.finish(false)
		b.err = http.ErrBodyReadAfterClose
	}
	return nil
}

func (b *hopBody) finish(clean bool) {
	alive := clean && b.keep && b.br.Buffered() == 0
	b.br.Reset(nil)
	hopReaders.Put(b.br)
	if b.stop != nil && !b.stop() {
		alive = false // the context fired: the connection is closed
	}
	if !alive || !b.t.release(b.cc) {
		b.cc.Close()
	}
}

// CloseIdleConnections closes every peer's idle hop connections, then the
// fallback's idle connections; http.Client.CloseIdleConnections calls it.
func (t *upstreamTransport) CloseIdleConnections() {
	t.mu.Lock()
	for _, p := range t.peers {
		for _, cc := range p.idle {
			cc.Close()
		}
		p.idle = nil
	}
	t.mu.Unlock()
	t.fallback.CloseIdleConnections()
}

// release returns cc to its peer's idle list, reporting false when its
// peer is no hop peer.
func (t *upstreamTransport) release(cc *hopClientConn) bool {
	cc.since = time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[cc.host]
	if p == nil || p.mode != peerHop {
		return false
	}
	p.idle = append(p.idle, cc)
	return true
}
