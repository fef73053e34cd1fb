package httpgw

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	_ "unsafe" // readRequest
)

// Loop connections (docs/PROTOCOL.md, "Hop connections"): once net/http has
// handed a node a connection's first request, the node serves the
// connection from its own loop, each answer in one flush. Under a server
// whose handler is the node itself, any plaintext HTTP/1.1 keep-alive
// request without a body is taken over as it stands — a peer's or a plain
// client's: the loop answers what net/http's server would, and refuses the
// few forms no such client sends (refusal).
const (
	// The upstream client closes a connection idle for clientIdle, and never
	// reuses one that old; a server closes one idle for its IdleTimeout,
	// which must be longer (ServerIdleTimeout, Apache's KeepAliveTimeout
	// default), so the client never writes into that close.
	clientIdle        = 4 * time.Second
	ServerIdleTimeout = 5 * time.Second
	hopBufSize        = 8 << 10                           // a head and a 4 KiB body leave in one write
	hopMaxHead        = http.DefaultMaxHeaderBytes + 4096 // net/http's cap, with its slack
	// net/http's server: the handler's output held back until the head is
	// decided, the bytes sniffed for a Content-Type, the unread request body
	// discarded to keep a connection, and the wait before a close that may
	// leave the client's bytes unread.
	hopHoldSize   = 2048
	hopSniffLen   = 512
	hopMaxDiscard = 256 << 10
	hopLinger     = 500 * time.Millisecond
	// The interim (1xx) answers the client reads past; one more is an error,
	// so an upstream cannot keep an exchange reading heads.
	max1xx = 5
)

// Buffers belong to an exchange, never to an idle connection.
var (
	hopReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, hopBufSize) }}
	hopWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, hopBufSize) }}
	hopHolds   = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, hopHoldSize) }}
)

// readRequest is the parser net/http's server runs: http.ReadRequest
// without its removal of the Host header, which the server checks first.
//
//go:linkname readRequest net/http.readRequest
func readRequest(b *bufio.Reader) (*http.Request, error)

// servedKey tags the contexts of a loop connection's requests
// (cascade_gw_served_total); a request net/http serves carries none.
type servedKey struct{}

const (
	servedHTTP = iota
	servedLoop
)

var servedNames = [...]string{"http", "loop"}

// edgeServer marks a server handler whose every request the loop may serve:
// a Node, or an Origin. Under any other handler — a mux that holds a node beside a
// handler that streams or hijacks — every connection stays net/http's.
type edgeServer interface{ servesEdge() }

func (*Node) servesEdge() {}

// hopConns holds the loop connections a node accepted, by server: a
// hijacked connection is no longer its server's to track, so each server's
// Shutdown closes the ones accepted through it (its Close runs no hook).
type hopConns struct {
	mu    sync.Mutex
	conns map[*http.Server]map[*hopServerConn]struct{}
}

// accept takes a connection over from net/http at r, its first request,
// when the server's handler is an edgeServer and r is a plaintext HTTP/1.1
// keep-alive request without a body; first answers r. It reports false,
// with w untouched, when r cannot be taken over, and r stays net/http's.
func (s *hopConns) accept(w http.ResponseWriter, r *http.Request, first http.Handler) bool {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if srv == nil || r.ProtoMajor != 1 || r.ProtoMinor != 1 || r.Close || r.TLS != nil || r.Body != http.NoBody {
		return false
	}
	if _, whole := srv.Handler.(edgeServer); !whole {
		return false
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return false
	}
	hc := newHopServerConn(conn, srv, r.Context())
	if n := rw.Reader.Buffered(); n > 0 { // pipelined behind r
		held, _ := rw.Reader.Peek(n)
		hc.src.pending = append([]byte(nil), held...)
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck // net/http's, for r
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
	firstReq := hc.begin(r, first)
	hc.cancel = firstReq.cancel
	go func() {
		hc.serve(firstReq)
		s.mu.Lock()
		delete(set, hc)
		s.mu.Unlock()
	}()
	return true
}

// hopServerConn is one loop connection, served by two goroutines: read
// parses each request and hands it to serve, which runs the handler and
// writes the answer. While a request is in service, read waits on the
// connection — a client that is not pipelining sends nothing until it has
// its answer, so any other end of that read is the client departing —
// unless the connection holds more of the request (its body) or of the
// next: then read waits for the answer, as net/http does.
type hopServerConn struct {
	conn    net.Conn
	handler http.Handler
	base    context.Context
	remote  string
	src     hopSource
	head    io.LimitedReader // src, within hopMaxHead while a head is read
	br      *bufio.Reader    // held while the connection holds unserved bytes
	one     [1]byte
	armed   time.Time // the read deadline set
	// The server's timeouts: the idle wait, a head's, a write's; 0 is none.
	idle, header, write time.Duration
	afterPost           bool // net/http skips a CRLF a client sent after a POST body
	linger              bool // close as net/http does after a refused body: FIN, a wait, then the close
	answered            chan bool

	mu        sync.Mutex
	busy      int                // requests read and not yet answered
	cancel    context.CancelFunc // the request in service's (once answered, a no-op)
	idleSince time.Time
	closing   bool
}

type hopRequest struct {
	r      *http.Request
	h      http.Handler
	cancel context.CancelFunc
	body   *hopReqBody // nil without a body
	fail   string      // for a request the loop refuses: its whole answer, and the close
	linger bool        // after fail: the client may still be sending
	hold   bool        // read waits for the answer
}

// newHopServerConn is a loop connection under srv, with srv's handler and,
// as net/http applies them, its timeouts: the idle wait is IdleTimeout's,
// else ReadTimeout's; a head's is ReadHeaderTimeout's, else ReadTimeout's;
// 0 is none.
func newHopServerConn(conn net.Conn, srv *http.Server, base context.Context) *hopServerConn {
	base = context.WithValue(context.WithoutCancel(base), servedKey{}, servedLoop)
	hc := &hopServerConn{conn: conn, handler: srv.Handler, base: base, remote: conn.RemoteAddr().String(), src: hopSource{conn: conn},
		idle: cmp.Or(srv.IdleTimeout, srv.ReadTimeout), header: cmp.Or(srv.ReadHeaderTimeout, srv.ReadTimeout), write: srv.WriteTimeout,
		idleSince: time.Now(), answered: make(chan bool)}
	hc.head.R = &hc.src
	return hc
}

// begin gives r its own context, and counts the connection busy until serve
// has answered r. The caller makes r's cancel the connection's once r is in
// service: the client's departure then cancels it.
func (hc *hopServerConn) begin(r *http.Request, h http.Handler) hopRequest {
	ctx, cancel := context.WithCancel(hc.base)
	r = r.WithContext(ctx)
	r.RemoteAddr = hc.remote
	hc.mu.Lock()
	hc.busy++
	hc.mu.Unlock()
	return hopRequest{r: r, h: h, cancel: cancel}
}

// stop closes the connection now if it is idle, else after the answer in
// service.
func (hc *hopServerConn) stop() {
	hc.mu.Lock()
	hc.closing = true
	idle := hc.busy == 0
	hc.mu.Unlock()
	if idle {
		hc.conn.Close()
	}
}

// serve answers first (when set) and every request read hands over, and
// closes the connection after the first answer that ends it; it returns
// once read has exited.
func (hc *hopServerConn) serve(first hopRequest) {
	reqs, exited := make(chan hopRequest), make(chan struct{})
	go func() {
		defer close(exited)
		defer close(reqs)
		for hc.read(reqs) {
		}
		hc.release()
	}()
	ok := true
	answer := func(hr hopRequest) {
		if !ok {
			if hr.cancel != nil {
				hr.cancel()
			}
		} else if ok = hc.respond(hr); !ok {
			hc.hangUp()
		}
		if hr.hold {
			hc.answered <- ok
		}
	}
	if first.r != nil {
		answer(first)
	}
	for hr := range reqs {
		answer(hr)
	}
	hc.conn.Close()
	<-exited
}

// hangUp closes the connection; after a request body left unread it first
// sends FIN and waits, so that the client reads its answer before a reset.
func (hc *hopServerConn) hangUp() {
	if cw, ok := hc.conn.(interface{ CloseWrite() error }); ok && hc.linger {
		cw.CloseWrite() //nolint:errcheck
		time.Sleep(hopLinger)
	}
	hc.conn.Close()
}

// read hands serve the next request, or net/http's refusal of a malformed
// one, and reports whether the connection stays open.
func (hc *hopServerConn) read(reqs chan<- hopRequest) bool {
	if hc.br == nil {
		if !hc.await() {
			return false
		}
		hc.br = hopReaders.Get().(*bufio.Reader)
		hc.br.Reset(&hc.head)
	}
	if hc.header > 0 {
		hc.arm(time.Now().Add(hc.header))
	}
	if hc.afterPost {
		peek, _ := hc.br.Peek(4)
		hc.br.Discard(len(peek) - len(bytes.TrimLeft(peek, "\r\n"))) //nolint:errcheck
	}
	hc.head.N = hopMaxHead
	r, err := readRequest(hc.br)
	tooLarge := err != nil && hc.head.N <= 0
	hc.head.N = math.MaxInt64
	fail := refusal(r, err, tooLarge)
	if fail != "" {
		reqs <- hopRequest{fail: fail, linger: tooLarge}
		return false
	}
	if err != nil {
		return false // the client left, or went quiet: net/http answers nothing
	}
	hc.afterPost = r.Method == http.MethodPost
	h := hc.handler
	switch expect := r.Header.Get("Expect"); {
	case hasToken(expect, "100-continue"):
	case expect != "":
		h = expectationFailed
	}
	hr := hc.begin(r, h)
	if hc.header > 0 {
		hc.arm(time.Time{}) // the head is in: from here the wait is await's
	}
	if hr.r.Body != http.NoBody {
		expect := hasToken(r.Header.Get("Expect"), "100-continue")
		hr.body = &hopReqBody{rc: hr.r.Body, n: hr.r.ContentLength, expect: expect, cont: expect}
		hr.r.Body = hr.body
	}
	if hr.hold = hr.body != nil || hc.br.Buffered() > 0; !hr.hold {
		hc.release()
	}
	reqs <- hr // serve has taken hr: it is in service, any before it answered
	hc.mu.Lock()
	hc.cancel = hr.cancel
	hc.mu.Unlock()
	if !hr.hold {
		return true
	}
	if !<-hc.answered {
		return false
	}
	if hc.br.Buffered() == 0 {
		hc.release()
	}
	return true
}

// release returns the reader's buffer, if it holds one, to the pool.
func (hc *hopServerConn) release() {
	if hc.br != nil {
		hc.br.Reset(nil)
		hopReaders.Put(hc.br)
		hc.br = nil
	}
}

// refusal is the whole answer to a request the loop refuses before any
// handler runs, or "" for none: a request to serve, or a read that ended
// with the client gone. It refuses what net/http's server does — a head
// past the cap (431), a malformed one, a missing or malformed Host, a
// header name with a space (400) — and, with a plain 400 too, the forms
// net/http serves but no keep-alive HTTP/1.1 client sends on a connection
// it opened with HTTP/1.1: another protocol version (HTTP/1.0, the h2c
// preface) and the asterisk form (OPTIONS *). A transfer coding net/http
// answers 501 is a malformed head here.
func refusal(r *http.Request, err error, tooLarge bool) string {
	const tail = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	if err != nil {
		ne, timeout := err.(net.Error)
		oe, op := err.(*net.OpError)
		switch {
		case tooLarge:
			return "HTTP/1.1 431 Request Header Fields Too Large" + tail + "431 Request Header Fields Too Large"
		case err == io.EOF || timeout && ne.Timeout() || op && oe.Op == "read":
			return ""
		}
		return "HTTP/1.1 400 Bad Request" + tail + "400 Bad Request"
	}
	hosts := r.Header["Host"]
	why := ""
	switch {
	case r.ProtoMajor != 1 || r.ProtoMinor == 0 || r.RequestURI == "*":
		why = "unsupported request form"
	case len(hosts) == 0 && r.Method != http.MethodConnect:
		why = "missing required Host header"
	case len(hosts) == 1 && !validHost(hosts[0]):
		why = "malformed Host header"
	case spacedKey(r.Header):
		why = "invalid header name" // the one non-token byte textproto lets through
	default:
		delete(r.Header, "Host")
		return ""
	}
	return "HTTP/1.1 400 Bad Request" + tail + "400 Bad Request: " + why
}

// validHost is net/http's lenient Host check: no byte outside what a
// uri-host and port may hold.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		c := h[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || strings.IndexByte("!$%&'()*+,-.:;=[]_~", c) >= 0) {
			return false
		}
	}
	return true
}

func spacedKey(h http.Header) bool {
	for k := range h {
		if strings.IndexByte(k, ' ') >= 0 {
			return true
		}
	}
	return false
}

// hasToken reports whether the comma-separated header value v lists
// token, ASCII case aside, as net/http reads Connection and Expect.
func hasToken(v, token string) bool {
	for _, f := range strings.FieldsFunc(v, func(c rune) bool { return c == ',' || c == ' ' || c == '\t' }) {
		if len(f) == len(token) && strings.ToLower(f) == token { // a non-ASCII f lowers to no ASCII token of its length
			return true
		}
	}
	return false
}

// expectationFailed is net/http's answer to an Expect it does not know.
var expectationFailed = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Connection", "close")
	w.WriteHeader(http.StatusExpectationFailed)
})

// await blocks on the first byte of the next request, holding no buffer.
// Any other end of the read is the client departing, or the server
// closing, and cancels the request in service; the idle deadline closes a
// connection that has sent nothing for the server's idle timeout.
func (hc *hopServerConn) await() bool {
	if len(hc.src.pending) > 0 {
		return true
	}
	if hc.idle > 0 && hc.armed.IsZero() {
		hc.arm(time.Now().Add(hc.idle))
	}
	for {
		n, err := hc.conn.Read(hc.one[:])
		if n > 0 {
			hc.src.pending = hc.one[:n]
			return true
		}
		hc.mu.Lock()
		var until time.Time // zero: no idle close
		if hc.idle > 0 {
			if until = time.Now().Add(hc.idle); hc.busy == 0 {
				until = hc.idleSince.Add(hc.idle)
			}
		}
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) && !hc.closing && (until.IsZero() || time.Now().Before(until)) {
			hc.mu.Unlock()
			hc.arm(until)
			continue
		}
		if hc.cancel != nil {
			hc.cancel()
		}
		hc.mu.Unlock()
		return false
	}
}

// arm sets the connection's read deadline to t (zero: none) unless it is
// set there already.
func (hc *hopServerConn) arm(t time.Time) {
	if !t.Equal(hc.armed) {
		hc.conn.SetReadDeadline(t) //nolint:errcheck
		hc.armed = t
	}
}

// respond runs one exchange and reports whether the connection may carry
// another.
func (hc *hopServerConn) respond(hr hopRequest) (ok bool) {
	bw := hopWriters.Get().(*bufio.Writer)
	bw.Reset(hc.conn)
	if hc.write > 0 {
		hc.conn.SetWriteDeadline(time.Now().Add(hc.write)) //nolint:errcheck
	}
	if hr.fail != "" {
		hc.linger = hr.linger
		bw.WriteString(hr.fail) //nolint:errcheck
		bw.Flush()              //nolint:errcheck
		bw.Reset(nil)
		hopWriters.Put(bw)
		return false
	}
	w := &hopWriter{hc: hc, req: hr.r, body: hr.body, bw: bw, hold: hopHolds.Get().(*bufio.Writer),
		h: make(http.Header), declared: -1}
	w.hold.Reset((*hopWire)(w))
	if hr.body != nil {
		hr.body.w = w
	}
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			log.Printf("httpgw: panic serving %s: %v", hr.r.URL.Path, p)
		}
		if hr.body != nil {
			hr.body.Close() //nolint:errcheck
		}
		w.hold.Reset(nil)
		hopHolds.Put(w.hold)
		w.bw.Reset(nil)
		hopWriters.Put(w.bw)
		hr.cancel()
		hc.mu.Lock()
		hc.busy--
		hc.idleSince = time.Now()
		ok = ok && !hc.closing
		hc.mu.Unlock()
	}()
	hr.h.ServeHTTP(w, hr.r)
	return w.finish()
}

// hopSource yields the bytes await took, or accept found pipelined, then
// the connection.
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

// hopReqBody is a request body on a loop connection, as net/http's server
// hands it out: a body the client holds back for "Expect: 100-continue"
// gets its 100 on the first Read, unless an answer has begun. Once closed —
// by its handler, or when the exchange is over — it reads nothing more from
// the connection, and a rest its handler left unread ends the connection.
type hopReqBody struct {
	mu     sync.Mutex
	rc     io.ReadCloser // readRequest's, over the connection's held reader
	w      *hopWriter
	n      int64 // declared bytes not yet read; negative when chunked
	expect bool  // the client holds the body back for a 100
	cont   bool  // the 100 may still be sent
	eof    bool
	closed bool
}

func (b *hopReqBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.read(p)
}

func (b *hopReqBody) read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.cont && b.w != nil {
		b.cont = false
		b.w.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n") //nolint:errcheck
		b.w.bw.Flush()                                      //nolint:errcheck
	}
	n, err := b.rc.Read(p)
	b.n -= int64(n)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *hopReqBody) Close() error {
	b.mu.Lock()
	b.closed, b.w = true, nil
	b.mu.Unlock()
	return nil
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// hopWriter is a loop connection's http.ResponseWriter. It is net/http's
// response, rule for rule: the handler's first 2 KiB are held until the head
// is decided, a short body the handler finished without declaring gets a
// Content-Length and a longer one chunks, a missing Content-Type is sniffed,
// Date is set, HEAD gets no body, and Connection: close ends the
// connection. The head leaves with the first body bytes in one flush.
type hopWriter struct {
	hc       *hopServerConn
	req      *http.Request
	body     *hopReqBody
	bw       *bufio.Writer // the connection's
	hold     *bufio.Writer // the handler's bytes until the head is decided
	h        http.Header
	snap     http.Header // h as WriteHeader left it, once the handler reads h again
	status   int
	declared int64 // -1 when the handler declares no length
	written  int64
	sent     bool // the head is on bw
	done     bool // the handler returned
	chunked  bool
	close    bool // the connection ends after this answer
}

// hopWire is what the hold buffer flushes into: the head, then the body.
type hopWire hopWriter

func (w *hopWriter) Header() http.Header {
	if w.status != 0 && !w.sent && w.snap == nil {
		w.snap = w.h.Clone()
	}
	return w.h
}

func (w *hopWriter) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if code < 101 || code > 199 {
		w.begin()
	}
	if code < 200 && code != http.StatusSwitchingProtocols {
		w.writeStatus(code)
		w.h.WriteSubset(w.bw, map[string]bool{"Content-Length": true, "Transfer-Encoding": true}) //nolint:errcheck
		w.bw.WriteString("\r\n")                                                                  //nolint:errcheck
		w.bw.Flush()                                                                              //nolint:errcheck
		return
	}
	w.status = code
	if cl := w.h.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.declared = v
		} else {
			w.h.Del("Content-Length")
		}
	}
}

// begin ends the chance of a 100 Continue: the answer has begun.
func (w *hopWriter) begin() {
	if b := w.body; b != nil && b.expect {
		b.mu.Lock()
		b.cont = false
		b.mu.Unlock()
	}
}

func (w *hopWriter) Write(p []byte) (int, error) {
	w.begin()
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	if w.written += int64(len(p)); w.declared >= 0 && w.written > w.declared {
		return 0, http.ErrContentLength
	}
	return w.hold.Write(p)
}

func (c *hopWire) Write(p []byte) (int, error) {
	w := (*hopWriter)(c)
	if !w.sent {
		w.writeHead(p)
	}
	if w.req.Method == http.MethodHead {
		return len(p), nil
	}
	if w.chunked {
		w.bw.Write(append(strconv.AppendInt(w.bw.AvailableBuffer(), int64(len(p)), 16), '\r', '\n')) //nolint:errcheck // errors stick: finish's Flush reports them
	}
	n, err := w.bw.Write(p)
	if w.chunked {
		w.bw.WriteString("\r\n") //nolint:errcheck
	}
	return n, err
}

func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

func (w *hopWriter) writeStatus(code int) {
	if text := http.StatusText(code); text != "" {
		w.bw.WriteString("HTTP/1.1 ")                                          //nolint:errcheck
		w.bw.Write(strconv.AppendInt(w.bw.AvailableBuffer(), int64(code), 10)) //nolint:errcheck
		w.bw.WriteString(" ")                                                  //nolint:errcheck
		w.bw.WriteString(text)                                                 //nolint:errcheck
		w.bw.WriteString("\r\n")                                               //nolint:errcheck
	} else {
		fmt.Fprintf(w.bw, "HTTP/1.1 %03d status code %d\r\n", code, code)
	}
}

// writeHead decides and writes the head, as net/http's chunkWriter does; p
// is the body's first bytes, sniffed for a Content-Type.
func (w *hopWriter) writeHead(p []byte) {
	w.sent = true
	h := w.h
	if w.snap != nil {
		h = w.snap
	}
	var ex map[string]bool // handler headers left out
	del := func(k string) {
		if _, ok := h[k]; ok {
			if ex == nil {
				ex = make(map[string]bool)
			}
			ex[k] = true
		}
	}
	r, head := w.req, w.req.Method == http.MethodHead
	te := h.Get("Transfer-Encoding")
	var clen, ctype, conn string
	if w.done && te == "" && bodyAllowed(w.status) && !has(h, "Content-Length") && (!head || len(p) > 0) {
		w.declared = int64(len(p))
		clen = strconv.Itoa(len(p))
	}
	if r.Close || hasToken(r.Header.Get("Connection"), "close") || h.Get("Connection") == "close" {
		w.close = true
	}
	if b := w.body; b != nil && (b.expect && !b.eof || !w.close) {
		var tooBig bool
		if w.close, tooBig = w.settleBody(b); tooBig {
			w.hc.linger = true
			del("Connection")
			conn = "close"
		}
	}
	if !bodyAllowed(w.status) {
		del("Content-Length")
		del("Transfer-Encoding")
		if w.status == http.StatusNotModified {
			del("Content-Type")
		}
	} else if _, set := h["Content-Type"]; !set && te == "" && h.Get("Content-Encoding") == "" && len(p) > 0 {
		ctype = http.DetectContentType(p)
	}
	if w.declared != -1 && te != "" {
		del("Content-Length")
		w.declared = -1
	}
	del("Transfer-Encoding") // the loop frames the body itself
	if w.chunked = !head && bodyAllowed(w.status) && w.declared == -1; w.chunked {
		del("Content-Length")
	}
	if w.close && !hasToken(h.Get("Connection"), "close") && !(w.status == http.StatusSwitchingProtocols && h.Get("Upgrade") != "") {
		del("Connection")
		conn = "close"
	}
	w.writeStatus(w.status)
	h.WriteSubset(w.bw, ex) //nolint:errcheck
	if !has(h, "Date") {
		w.bw.WriteString("Date: ")                                                         //nolint:errcheck
		w.bw.Write(time.Now().UTC().AppendFormat(w.bw.AvailableBuffer(), http.TimeFormat)) //nolint:errcheck
		w.bw.WriteString("\r\n")                                                           //nolint:errcheck
	}
	var chunked string
	if w.chunked {
		chunked = "chunked"
	}
	for _, kv := range [...][2]string{{"Content-Length", clen}, {"Content-Type", ctype}, {"Connection", conn}, {"Transfer-Encoding", chunked}} {
		if kv[1] != "" {
			w.bw.WriteString(kv[0])  //nolint:errcheck
			w.bw.WriteString(": ")   //nolint:errcheck
			w.bw.WriteString(kv[1])  //nolint:errcheck
			w.bw.WriteString("\r\n") //nolint:errcheck
		}
	}
	w.bw.WriteString("\r\n") //nolint:errcheck
}

// has reports whether h holds key at all, even with no value, as net/http's
// own checks read it.
func has(h http.Header, key string) bool {
	_, ok := h[key]
	return ok
}

// settleBody is net/http's treatment of a request body when the answer
// begins: a rest the client holds back for a 100 ends the connection, a rest
// of hopMaxDiscard bytes or more ends it too (tooBig), and a smaller one is
// read and dropped. end reports whether the connection ends.
func (w *hopWriter) settleBody(b *hopReqBody) (end, tooBig bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.expect:
		return !b.eof, false
	case b.closed:
		w.hc.linger = !b.eof
		return !b.eof, false
	case b.n >= hopMaxDiscard:
		return true, true
	}
	_, err := io.CopyN(io.Discard, readerFunc(b.read), hopMaxDiscard+1)
	switch err {
	case nil:
		return true, true
	case io.EOF:
		b.closed = true
		return false, false
	}
	return true, false
}

// ReadFrom is net/http's: the first 512 bytes go through Write, so that a
// head that needs them has them, and the rest straight to the connection —
// here only when src is an *io.LimitedReader within the declared length
// still owed, and then by the connection's ReadFrom: a splice(2) when src
// reads a socket. Any other source takes Write, and its checks, through
// copyStream's pooled buffer.
func (w *hopWriter) ReadFrom(src io.Reader) (int64, error) {
	var n int64
	if !w.sent {
		lr := &io.LimitedReader{R: src, N: hopSniffLen}
		n0, err := copyStream(w, lr)
		if n = n0; err != nil || n0 < hopSniffLen {
			return n, err
		}
	}
	w.hold.Flush() //nolint:errcheck
	if !w.sent {
		w.writeHead(nil)
	}
	lr, ok := src.(*io.LimitedReader)
	if !ok || w.chunked || w.req.Method == http.MethodHead || !bodyAllowed(w.status) || w.declared < 0 || lr.N > w.declared-w.written {
		k, err := copyStream(w, src)
		return n + k, err
	}
	if err := w.bw.Flush(); err != nil {
		return n, err
	}
	k, err := w.bw.ReadFrom(lr) // empty: straight to the connection's ReadFrom
	w.written += k
	return n + k, err
}

// Flush sends what the handler has written so far, the head first, as
// net/http's response does.
func (w *hopWriter) Flush() {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.hold.Flush() //nolint:errcheck
	if !w.sent {
		w.writeHead(nil)
	}
	w.bw.Flush() //nolint:errcheck
}

// finish completes the answer and flushes it, as net/http's finishRequest
// does, and reports whether the connection may carry another.
func (w *hopWriter) finish() bool {
	w.done = true
	w.begin()
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.hold.Flush() //nolint:errcheck
	if !w.sent {
		w.writeHead(nil)
	}
	if w.chunked {
		w.bw.WriteString("0\r\n\r\n") //nolint:errcheck
	}
	err := w.bw.Flush()
	short := w.req.Method != http.MethodHead && w.declared != -1 && bodyAllowed(w.status) && w.declared != w.written
	return !w.close && !short && err == nil
}

// NewUpstreamClient returns an upstream client with a budget of timeout
// per exchange (none when timeout ≤ 0): keep-alive connections of its own to
// every http:// upstream, peer or origin, and a tuned *http.Transport to
// https:// ones — a pool sized for a hop's concurrent misses, no proxy, no
// compression. The budget lives in the transport, not in
// http.Client.Timeout, which on any RoundTripper but *http.Transport costs
// a goroutine and a timer per request: it is an exchange's connection
// deadline, and the fallback's ResponseHeaderTimeout.
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
		idle: make(map[string][]*hopClientConn),
	}}
}

// upstreamTransport carries each http:// exchange on the newest idle
// connection to its upstream, or a new one, and pools the connection again
// once the answer has been read to its end. Every other request takes the
// fallback.
type upstreamTransport struct {
	timeout  time.Duration
	fallback *http.Transport

	mu   sync.Mutex
	idle map[string][]*hopClientConn // by host, oldest first
}

type hopClientConn struct {
	net.Conn
	host string
	// reap closes the connection once it has sat idle for clientIdle, so an
	// upstream no exchange goes to any more is left no loop serving it; nil
	// until the connection is first pooled.
	reap *time.Timer
}

// RoundTrip sends req and returns the final answer to it. A GET or HEAD
// without a body whose reused connection ends — closed or reset by the
// upstream while it sat idle — before a byte of the answer arrives is sent
// once more on a new connection, as net/http's Transport does; nothing
// else is retried: not a timeout, not a done context, not a POST.
func (t *upstreamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		return t.fallback.RoundTrip(req)
	}
	replay := (req.Method == http.MethodGet || req.Method == http.MethodHead) && (req.Body == nil || req.Body == http.NoBody)
	for fresh := false; ; fresh = true {
		var cc *hopClientConn
		if !fresh {
			cc = t.take(req.URL.Host)
		}
		if cc == nil {
			addr := req.URL.Host
			if req.URL.Port() == "" {
				addr = net.JoinHostPort(req.URL.Hostname(), "80")
			}
			c, err := t.fallback.DialContext(req.Context(), "tcp", addr)
			if err != nil {
				return nil, err
			}
			cc = &hopClientConn{Conn: c, host: req.URL.Host}
		}
		reused := cc.reap != nil // the upstream may have closed it while it sat idle
		resp, early, err := t.exchange(cc, req)
		if err == nil || fresh || !early || !reused || !replay || req.Context().Err() != nil ||
			!errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) && !errors.Is(err, syscall.EPIPE) {
			return resp, err
		}
	}
}

// take hands out the newest idle connection to host, or nil.
func (t *upstreamTransport) take(host string) *hopClientConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idle[host]
	n := len(idle)
	if n == 0 {
		return nil
	}
	cc := idle[n-1]
	if !cc.reap.Stop() { // reaped, and so are the older ones, or about to be
		delete(t.idle, host)
		return nil
	}
	idle[n-1] = nil
	t.idle[host] = idle[:n-1]
	return cc
}

// exchange sends req on cc and reads the final answer to it, past any 1xx.
// The connection's deadline is the exchange's budget, and a done request
// context closes the connection. early reports a failure before a byte of
// any answer arrived.
func (t *upstreamTransport) exchange(cc *hopClientConn, req *http.Request) (resp *http.Response, early bool, err error) {
	if t.timeout > 0 {
		cc.SetDeadline(time.Now().Add(t.timeout)) //nolint:errcheck
	}
	b := &hopBody{t: t, cc: cc}
	if ctx := req.Context(); ctx.Done() != nil {
		b.stop = context.AfterFunc(ctx, func() { cc.Close() })
	}
	bw := hopWriters.Get().(*bufio.Writer)
	bw.Reset(cc)
	err = req.Write(bw)
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil)
	hopWriters.Put(bw)
	b.head = io.LimitedReader{R: cc, N: hopMaxHead} // every head of the answer, 1xx included, within one cap
	b.br = hopReaders.Get().(*bufio.Reader)
	b.br.Reset(&b.head)
	if err == nil {
		_, err = b.br.Peek(1)
	}
	early = err != nil
	for interim := 0; err == nil; interim++ {
		resp, err = http.ReadResponse(b.br, req)
		if err == nil && (resp.StatusCode >= 200 || resp.StatusCode == http.StatusSwitchingProtocols) {
			break
		}
		if err == nil && interim == max1xx {
			err = errors.New("httpgw: too many 1xx answers from upstream")
		}
	}
	if err != nil {
		b.finish(false)
		return nil, early, err
	}
	b.head.N = math.MaxInt64
	// A 101 hands the connection to another protocol; an HTTP/1.0 answer
	// may close it unannounced.
	b.keep = !req.Close && !resp.Close && resp.ProtoAtLeast(1, 1) && resp.StatusCode >= 200
	if resp.Body == http.NoBody {
		b.finish(true)
	} else {
		b.rc, resp.Body, b.owed = resp.Body, b, resp.ContentLength
	}
	return resp, false, nil
}

// hopBody returns its connection to the idle list once read to the end,
// and closes it when the caller gives up early.
type hopBody struct {
	rc      io.ReadCloser
	t       *upstreamTransport
	cc      *hopClientConn
	br      *bufio.Reader
	head    io.LimitedReader // the socket, within hopMaxHead until the final head is read
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
	if alive {
		b.t.release(b.cc)
	} else {
		b.cc.Close()
	}
}

// release returns cc to its host's idle list, and arms its reaper.
func (t *upstreamTransport) release(cc *hopClientConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cc.reap == nil {
		cc.reap = time.AfterFunc(clientIdle, func() { cc.Close() })
	} else {
		cc.reap.Reset(clientIdle)
	}
	t.idle[cc.host] = append(t.idle[cc.host], cc)
}

// CloseIdleConnections closes every idle connection, then the fallback's;
// http.Client.CloseIdleConnections calls it.
func (t *upstreamTransport) CloseIdleConnections() {
	t.mu.Lock()
	for host, idle := range t.idle {
		for _, cc := range idle {
			cc.reap.Stop()
			cc.Close()
		}
		delete(t.idle, host)
	}
	t.mu.Unlock()
	t.fallback.CloseIdleConnections()
}
