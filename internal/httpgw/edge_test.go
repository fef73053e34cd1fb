package httpgw

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cascade/internal/cache"
	"cascade/internal/model"
)

// The edge take-over must not show: a client speaking to a node's loop
// gets what it would get from net/http. The tests below serve one node
// design twice over loopback — once through a writer that hides Hijack, so
// net/http serves every request, and once plainly, so the loop takes each
// connection over at its first request — and compare, session by session,
// the requests each handler saw and every answer: status, header set (Date
// present on both, its value aside) and body bytes.

// edgeSide is one of the two servers an edge session runs against.
type edgeSide struct {
	srv  *httptest.Server
	node *Node
	// Connections net/http accepted, and those it no longer serves.
	accepted, left atomic.Int64
	mu             sync.Mutex
	seen           []string // the requests the handler saw, in order
}

// netHTTPOnly hides Hijack, and with it the loop, from a node: its
// ReadFrom stays, so net/http's own body paths run.
type netHTTPOnly struct {
	http.ResponseWriter
	io.ReaderFrom
}

// edgeRecorder wraps a node to record what it is handed; like the node, it
// lets the loop serve every request of a connection taken over.
type edgeRecorder func(http.ResponseWriter, *http.Request)

func (f edgeRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) { f(w, r) }
func (edgeRecorder) servesEdge()                                        {}

// newEdgeSide serves a node whose upstream is an in-process origin: 3000
// bytes per object, 10000 in 4 KiB segments for every fifth.
func newEdgeSide(tb testing.TB, loop bool) *edgeSide {
	o := &Origin{
		Size: func(obj model.ObjectID) int {
			if obj%5 == 0 {
				return 10000
			}
			return 3000
		},
		SegmentThreshold: 4096, SegmentSize: 4096,
	}
	n := NewNode(0, "http://origin.invalid", 1, 64<<10, 64, func() float64 { return 0 })
	n.Client = &http.Client{Transport: stubUpstream(func(r *http.Request) *http.Response {
		rec := httptest.NewRecorder()
		o.ServeHTTP(rec, r)
		return rec.Result()
	})}
	s := &edgeSide{node: n}
	s.srv = httptest.NewUnstartedServer(edgeRecorder(func(w http.ResponseWriter, r *http.Request) {
		if !loop {
			w = netHTTPOnly{w, w.(io.ReaderFrom)}
		}
		var hdr []string
		for k, v := range r.Header {
			hdr = append(hdr, k+"="+strings.Join(v, ","))
		}
		sort.Strings(hdr)
		s.mu.Lock()
		i := len(s.seen)
		s.seen = append(s.seen, fmt.Sprintf("%s %s %s host=%q close=%v len=%d te=%v %v", r.Method, r.RequestURI, r.Proto,
			r.Host, r.Close, r.ContentLength, r.TransferEncoding, hdr))
		s.mu.Unlock()
		var body bytes.Buffer
		if r.Body != http.NoBody {
			r = r.WithContext(r.Context()) // r.Body stays the server's
			r.Body = struct {
				io.Reader
				io.Closer
			}{io.TeeReader(r.Body, &body), r.Body}
		}
		n.ServeHTTP(w, r)
		s.mu.Lock()
		s.seen[i] += fmt.Sprintf(" read %q", body.Bytes())
		s.mu.Unlock()
	}))
	s.srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			s.accepted.Add(1)
		case http.StateClosed, http.StateHijacked:
			s.left.Add(1)
		}
	}
	s.srv.Start()
	tb.Cleanup(s.srv.Close)
	return s
}

// edgeAnswer is one answer as a client reads it.
type edgeAnswer struct {
	status int
	proto  string
	header []string
	body   []byte
	err    error
}

func (a edgeAnswer) String() string {
	return fmt.Sprintf("%s %d %v body %d bytes %q", a.proto, a.status, a.header, len(a.body), a.body[:min(len(a.body), 64)])
}

// session writes each step's bytes to a fresh connection and reads answers
// until it has read finals[i] final answers for step i (interim 1xx answers
// are read and kept too), the server hangs up, or nothing arrives for idle.
// methods lists, in order, the methods of the requests the steps hold, so
// that a HEAD's answer is read without a body.
func (s *edgeSide) session(tb testing.TB, steps [][]byte, finals []int, methods []string, idle time.Duration) []edgeAnswer {
	tb.Helper()
	conn, err := net.Dial("tcp", s.srv.Listener.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var out []edgeAnswer
	final := 0
	for i, step := range steps {
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			conn.Write(step) //nolint:errcheck // fails once the server has hung up
		}()
		for want := final + finals[i]; final < want; {
			conn.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck
			method := http.MethodGet
			if final < len(methods) {
				method = methods[final]
			}
			resp, err := http.ReadResponse(br, &http.Request{Method: strings.TrimPrefix(method, "metrics ")})
			if err != nil {
				if err != io.EOF {
					out = append(out, edgeAnswer{err: err})
				}
				<-wrote
				return out
			}
			a := edgeAnswer{status: resp.StatusCode, proto: resp.Proto}
			a.body, a.err = io.ReadAll(resp.Body)
			for k, v := range resp.Header {
				if k == "Date" {
					v = []string{fmt.Sprint(len(v) == 1 && len(v[0]) == len(http.TimeFormat))}
				}
				a.header = append(a.header, k+"="+strings.Join(v, ","))
			}
			if len(resp.TransferEncoding) > 0 {
				a.header = append(a.header, "Transfer-Encoding="+strings.Join(resp.TransferEncoding, ","))
			}
			if strings.HasPrefix(method, "metrics") {
				// cascade_gw_served_total tells the two servers apart.
				a.body, a.header = nil, withoutPrefixed(a.header, "Content-Length=")
			}
			sort.Strings(a.header)
			out = append(out, a)
			if resp.StatusCode >= 200 {
				final++
			}
			if a.err != nil {
				<-wrote
				return out
			}
		}
		<-wrote
	}
	return out
}

// edgeCompare fails on the first difference between what net/http's server
// and the loop answered, and the requests their handlers saw, up to upto
// requests (all, when negative). A server that closes on bytes it has not
// read may have the client's kernel answer them with a reset, which can cut
// what the client reads short: from the first answer that ended in a read
// error on either side, only a status and header set both sides read are
// compared.
func edgeCompare(tb testing.TB, what string, std, loop []edgeAnswer, seenStd, seenLoop []string, upto int) {
	tb.Helper()
	if upto >= 0 {
		std, loop = std[:min(len(std), upto)], loop[:min(len(loop), upto)]
		seenStd, seenLoop = seenStd[:min(len(seenStd), upto)], seenLoop[:min(len(seenLoop), upto)]
	}
	for i := 0; i < max(len(seenStd), len(seenLoop)); i++ {
		if i >= len(seenStd) || i >= len(seenLoop) || seenStd[i] != seenLoop[i] {
			tb.Fatalf("%s: request %d as the handler saw it\nnet/http: %v\nloop:     %v", what, i, seenStd[i:], seenLoop[i:])
		}
	}
	for i := 0; i < max(len(std), len(loop)); i++ {
		cut := i < len(std) && std[i].err != nil || i < len(loop) && loop[i].err != nil
		switch {
		case cut && (i >= len(std) || i >= len(loop) || std[i].status == 0 || loop[i].status == 0):
			return
		case cut:
			if std[i].status != loop[i].status || fmt.Sprint(std[i].header) != fmt.Sprint(loop[i].header) {
				tb.Fatalf("%s: answer %d, cut short\nnet/http: %v\nloop:     %v", what, i, std[i:], loop[i:])
			}
			return
		}
		if i >= len(std) || i >= len(loop) || std[i].String() != loop[i].String() || !bytes.Equal(std[i].body, loop[i].body) {
			tb.Fatalf("%s: answer %d\nnet/http: %v\nloop:     %v", what, i, std[i:], loop[i:])
		}
	}
}

// edgeRun runs one session against each server in turn and returns what
// each answered and each handler saw. Once the client has left, every
// goroutine the server ran for it must end: only then is the list of what
// its handler saw complete.
func edgeRun(t *testing.T, sides [2]*edgeSide, steps [][]byte, finals []int, methods []string, idle time.Duration) (answers [2][]edgeAnswer, seen [2][]string) {
	t.Helper()
	for i, s := range sides {
		answers[i], seen[i] = s.run(t, steps, finals, methods, idle)
	}
	return answers, seen
}

func (s *edgeSide) run(t *testing.T, steps [][]byte, finals []int, methods []string, idle time.Duration) ([]edgeAnswer, []string) {
	t.Helper()
	s.mu.Lock()
	s.seen = nil
	s.mu.Unlock()
	before, accepted := runtime.NumGoroutine(), s.accepted.Load()
	answers := s.session(t, steps, finals, methods, idle)
	waitFor(t, 10*time.Second, func() bool {
		return s.accepted.Load() > accepted && s.left.Load() == s.accepted.Load() && hopConnsOpen([]*Node{s.node}) == 0
	}, "the server is still serving the session")
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= before }, "goroutines above the baseline of %d", before)
	s.mu.Lock()
	defer s.mu.Unlock()
	return answers, append([]string(nil), s.seen...)
}

const edgeFirst = "GET /objects/1 HTTP/1.1\r\nHost: edge\r\n\r\n"

func gobBody(tb testing.TB) []byte {
	var buf bytes.Buffer
	snaps := []cache.DescriptorSnapshot{{ID: 40, Size: 3000, MissPenalty: 1, AccessTimes: []float64{0}, WindowK: 2}}
	if err := gob.NewEncoder(&buf).Encode(snaps); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func chunked(p []byte, size int) string {
	var b strings.Builder
	for len(p) > 0 {
		n := min(size, len(p))
		fmt.Fprintf(&b, "%x\r\n%s\r\n", n, p[:n])
		p = p[n:]
	}
	return b.String() + "0\r\n\r\n"
}

// TestEdgeMatchesNetHTTP runs a scripted raw-socket client through both
// servers: hits, a miss, a segmented reassembly, a 404, a malformed
// X-Cascade-Path (400), HEAD, an admin POST with a JSON body, a chunked gob
// body, Expect: 100-continue, two pipelined GETs, a client's Connection:
// close and an oversized head. Every answer and every request the handler
// saw must be the same, and the loop must have served the edge sessions.
func TestEdgeMatchesNetHTTP(t *testing.T) {
	sides := [2]*edgeSide{newEdgeSide(t, false), newEdgeSide(t, true)}
	g := gobBody(t)
	req := func(method, path string, hdr ...string) string {
		return method + " " + path + " HTTP/1.1\r\nHost: edge\r\n" + strings.Join(hdr, "") + "\r\n"
	}
	type session struct {
		name    string
		steps   []string
		finals  []int
		methods []string
		answers int // what a client reads in all, 1xx included
	}
	for _, s := range []session{{
		name: "one client",
		steps: []string{
			edgeFirst,
			req("GET", "/objects/1"),
			req("GET", "/objects/2"),
			req("GET", "/objects/5"),
			req("GET", "/"),
			req("GET", "/objects/3", "X-Cascade-Path: 0;x;1\r\n"),
			req("HEAD", "/objects/1"),
			req("POST", "/cascade/admin/health?state=healthy", "Content-Type: application/json\r\nContent-Length: 2\r\n") + "{}",
			req("POST", "/cascade/admin/absorb", "Content-Type: application/x-gob\r\nTransfer-Encoding: chunked\r\n") + chunked(g, 40),
			req("POST", "/cascade/admin/absorb", fmt.Sprintf("Expect: 100-continue\r\nContent-Length: %d\r\n", len(g))) + string(g),
			req("GET", "/objects/7") + req("GET", "/objects/7"),
			req("GET", "/cascade/health"),
		},
		finals:  []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1},
		methods: []string{"GET", "GET", "GET", "GET", "GET", "GET", "HEAD"},
		answers: 14,
	}, {
		name:    "client closes",
		steps:   []string{edgeFirst, req("GET", "/objects/2", "Connection: close\r\n"), req("GET", "/objects/2")},
		finals:  []int{1, 1, 1},
		answers: 2,
	}, {
		name:    "oversized head",
		steps:   []string{edgeFirst, req("GET", "/objects/2", "X-Pad: "+strings.Repeat("a", 1100<<10)+"\r\n"), req("GET", "/objects/2")},
		finals:  []int{1, 1, 1},
		answers: 2,
	}} {
		steps := make([][]byte, len(s.steps))
		for i, st := range s.steps {
			steps[i] = []byte(st)
		}
		answers, seen := edgeRun(t, sides, steps, s.finals, s.methods, 5*time.Second)
		edgeCompare(t, s.name, answers[0], answers[1], seen[0], seen[1], -1)
		if n := countAnswers(answers[1]); n != s.answers {
			t.Fatalf("%s: %d answers, want %d: %v", s.name, n, s.answers, answers[1])
		}
	}
	if std, loop := &sides[0].node.served, &sides[1].node.served; std[servedLoop].Load() != 0 || std[servedHTTP].Load() == 0 ||
		loop[servedHTTP].Load() != 0 || loop[servedLoop].Load() == 0 {
		t.Errorf("net/http side served %d loop and %d http requests, loop side %d and %d; want all http, and all loop",
			std[servedLoop].Load(), std[servedHTTP].Load(), loop[servedLoop].Load(), loop[servedHTTP].Load())
	}
}

// FuzzEdgeConn is TestEdgeMatchesNetHTTP on arbitrary bytes after a first
// GET, written in one go: the loop must hand its handler the requests
// net/http's server does, and answer each as net/http does (Date's value
// aside), without a panic and without a goroutine left behind once the
// client leaves. pad, when set, inserts a header of pad%(2 MiB) bytes after
// the first line of data, so that oversized heads are reachable without
// megabyte corpus files. Requests and answers from a head within 16 KiB of
// net/http's cap on are not compared: where that cap falls depends on how
// far each server's reader had read ahead.
func FuzzEdgeConn(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, pad uint32) {
		if pad %= 2 << 20; pad > 0 {
			line := bytes.Index(data, []byte("\r\n")) + 2
			if line < 2 {
				line = len(data)
			}
			in := append([]byte(nil), data[:line]...)
			in = append(in, "X-Pad: "...)
			in = append(in, bytes.Repeat([]byte("a"), int(pad))...)
			in = append(in, "\r\n"...)
			data = append(in, data[line:]...)
		}
		in := append([]byte(edgeFirst), data...)
		methods, finals, upto := edgeReference(in)
		// Fresh nodes: a session compared only in part may leave the two
		// apart, and the stats page tells.
		sides := [2]*edgeSide{newEdgeSide(t, false), newEdgeSide(t, true)}
		answers, seen := edgeRun(t, sides, [][]byte{in}, []int{finals}, methods, 2*time.Second)
		edgeCompare(t, "fuzz session", answers[0], answers[1], seen[0], seen[1], upto)
	})
}

func countAnswers(as []edgeAnswer) (n int) {
	for _, a := range as {
		if a.status != 0 {
			n++
		}
	}
	return n
}

func withoutPrefixed(hdr []string, prefix string) []string {
	out := hdr[:0]
	for _, h := range hdr {
		if !strings.HasPrefix(h, prefix) {
			out = append(out, h)
		}
	}
	return out
}

// edgeReference reads in as a plain parser does, past the CRLF net/http's
// server skips after a POST body: the method of each request it holds (a
// request for the metrics page marked), how many final answers a server
// owes (each whole request, and the refusal of a malformed head),
// and how many requests may be compared: those before a head near the cap,
// and before the first the loop refuses where net/http does not, or not
// alike — a form other than origin or absolute on HTTP/1.1 (net/http serves
// it), and a malformed head that names a transfer coding (net/http may
// answer 501).
func edgeReference(in []byte) (methods []string, finals, upto int) {
	upto = -1
	src := &countingReader{r: bytes.NewReader(in)}
	br := bufio.NewReader(src)
	for {
		if len(methods) > 0 && strings.HasSuffix(methods[len(methods)-1], http.MethodPost) {
			// net/http's server skips a CRLF a client sent after a POST body.
			peek, _ := br.Peek(4)
			br.Discard(len(peek) - len(bytes.TrimLeft(peek, "\r\n"))) //nolint:errcheck
		}
		start := src.n - int64(br.Buffered())
		r, err := http.ReadRequest(br)
		head := src.n - int64(br.Buffered()) - start
		if d := head - hopMaxHead; d > -16<<10 && d < 16<<10 && upto < 0 {
			upto = len(methods)
		}
		if err != nil && upto < 0 && bytes.Contains(bytes.ToLower(in[start:start+head]), []byte("transfer-encoding")) {
			upto = len(methods)
		}
		if err == nil && upto < 0 && (r.ProtoMajor != 1 || r.ProtoMinor == 0 || r.RequestURI == "*") {
			upto = len(methods)
		}
		if err != nil {
			if src.n < int64(len(in)) || br.Buffered() > 0 { // else a server waits for the rest
				finals++
			}
			return methods, finals, upto
		}
		m := r.Method
		if r.URL.Path == "/cascade/metrics" {
			m = "metrics " + m
		}
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return methods, finals, upto
		}
		methods = append(methods, m)
		finals++
	}
}

// TestEdgeTimeouts: a loop connection keeps its http.Server's timeouts, as
// net/http applies them — the idle wait is IdleTimeout's from the end of
// the last answer, whether or not ReadHeaderTimeout is longer, and a
// head's wait is ReadHeaderTimeout's.
func TestEdgeTimeouts(t *testing.T) {
	n := NewNode(0, "http://upstream.invalid", 1, 1<<20, 100, func() float64 { return 0 })
	server := func(idle, header time.Duration) *httptest.Server {
		srv := httptest.NewUnstartedServer(n)
		srv.Config.IdleTimeout, srv.Config.ReadHeaderTimeout = idle, header
		srv.Start()
		t.Cleanup(srv.Close)
		return srv
	}
	// closedAfter sends a first request, reads its answer, sends then, reads
	// the answers it draws, and reports how long the server took to close
	// the connection after that.
	closedAfter := func(srv *httptest.Server, then string, answers int) time.Duration {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("GET /cascade/health HTTP/1.1\r\nHost: edge\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		start := time.Now()
		if _, err := conn.Write([]byte(then)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		for i := 0; i < answers; i++ {
			if resp, err = http.ReadResponse(br, nil); err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			start = time.Now()
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("after %q: read %v, want the server's close", then, err)
		}
		return time.Since(start)
	}
	short := server(2*time.Second, 300*time.Millisecond)
	if d := closedAfter(short, "GET /cascade/health HTTP/1.1\r\nHost:", 0); d < 200*time.Millisecond || d > 1500*time.Millisecond {
		t.Errorf("a head left unfinished was closed after %v; want ReadHeaderTimeout's 300ms", d)
	}
	if d := closedAfter(short, "", 0); d < 1500*time.Millisecond || d > 4*time.Second {
		t.Errorf("an idle connection was closed after %v; want IdleTimeout's 2s", d)
	}
	// The second request is the first whose head the loop reads.
	if d := closedAfter(server(time.Second, 5*time.Second), "GET /cascade/health HTTP/1.1\r\nHost: edge\r\n\r\n", 1); d < 700*time.Millisecond || d > 3*time.Second {
		t.Errorf("an idle connection under a 5s ReadHeaderTimeout was closed after %v; want IdleTimeout's 1s", d)
	}
	if got := n.served[servedLoop].Load(); got != 4 {
		t.Errorf("%d requests served on loop connections, want 4", got)
	}
}

// pipelinedEdge serves a node whose upstream answers every object but 2 at
// once; for 2 it reports on entered, then runs hold. It returns the node's
// server, unstarted, and a connection to it that has sent GETs for objects
// 1 and 2 in one write.
func pipelinedEdge(t *testing.T, entered chan<- struct{}, hold func(r *http.Request)) (*httptest.Server, net.Conn) {
	t.Helper()
	o := &Origin{Size: func(model.ObjectID) int { return 500 }}
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/objects/2" {
			entered <- struct{}{}
			hold(r)
		}
		o.ServeHTTP(w, r)
	}))
	t.Cleanup(up.Close)
	n := NewNode(0, up.URL, 1, 1<<20, 100, func() float64 { return 0 })
	n.Client = NewUpstreamClient(time.Minute)
	t.Cleanup(n.Client.CloseIdleConnections)
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(edgeFirst + "GET /objects/2 HTTP/1.1\r\nHost: edge\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	return srv, conn
}

// TestEdgePipelinedShutdown: Shutdown while the second of two pipelined
// requests is in service closes the connection after its answer, not in
// the middle of it.
func TestEdgePipelinedShutdown(t *testing.T) {
	entered := make(chan struct{}, 1)
	srv, conn := pipelinedEdge(t, entered, func(*http.Request) { time.Sleep(300 * time.Millisecond) })
	<-entered
	if err := srv.Config.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	for i := 1; i <= 2; i++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || err != nil || len(body) != 500 {
			t.Fatalf("answer %d: status %d, %d bytes, %v; want 200 and all 500 bytes", i, resp.StatusCode, len(body), err)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the second answer: %v, want the server's close", err)
	}
}

// TestEdgePipelinedDeparture: a client that leaves while the second of two
// pipelined requests is in service cancels that request's context, and
// with it the upstream exchange.
func TestEdgePipelinedDeparture(t *testing.T) {
	entered, left := make(chan struct{}, 1), make(chan struct{})
	_, conn := pipelinedEdge(t, entered, func(r *http.Request) {
		<-r.Context().Done()
		close(left)
	})
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("first answer: %v", err)
	}
	<-entered
	conn.Close()
	select {
	case <-left:
	case <-time.After(5 * time.Second):
		t.Fatal("the upstream exchange of the request in service outlived its client by 5s")
	}
}

// TestEdgeOnlyUnderNode: a node mounted in a mux beside other handlers
// leaves every connection to net/http, whose writer can stream and hijack —
// a plain client's and the upstream client's alike; under a handler that
// lets the loop serve it, the loop's writer flushes on request.
func TestEdgeOnlyUnderNode(t *testing.T) {
	n := NewNode(0, "http://upstream.invalid", 1, 1<<20, 100, func() float64 { return 0 })
	flushed, release := make(chan error, 1), make(chan struct{})
	stream := func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "first") //nolint:errcheck
		err := http.NewResponseController(w).Flush()
		if flushed <- err; err == nil {
			<-release
		}
		io.WriteString(w, "second") //nolint:errcheck
	}
	mux := http.NewServeMux()
	mux.Handle("/cascade/", n)
	mux.HandleFunc("/stream", stream)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var once sync.Once
	done := func() { once.Do(func() { close(release) }) }
	defer done()

	for _, client := range []*http.Client{{Transport: &http.Transport{}}, NewUpstreamClient(time.Minute)} {
		for i := 0; i < 2; i++ {
			hopGet(t, client, srv.URL+"/cascade/health")
		}
		client.CloseIdleConnections()
	}
	if loop, std := n.served[servedLoop].Load(), n.served[servedHTTP].Load(); loop != 0 || std != 4 {
		t.Fatalf("a node in a mux served %d requests on loop connections and %d on net/http's; want 0 and 4", loop, std)
	}

	whole := httptest.NewServer(edgeRecorder(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stream" {
			stream(w, r)
			return
		}
		n.ServeHTTP(w, r)
	}))
	defer whole.Close()
	client := NewUpstreamClient(time.Minute)
	defer client.CloseIdleConnections()
	hopGet(t, client, whole.URL+"/cascade/health")
	resp, err := client.Get(whole.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := <-flushed; err != nil || hopConnsOpen([]*Node{n}) != 1 {
		t.Fatalf("Flush on a loop connection (%d open): %v", hopConnsOpen([]*Node{n}), err)
	}
	got := make([]byte, len("first"))
	if _, err := io.ReadFull(resp.Body, got); err != nil || string(got) != "first" {
		t.Fatalf("read %q, %v before the handler went on; want the flushed %q", got, err, "first")
	}
	done()
	if rest, err := io.ReadAll(resp.Body); err != nil || string(rest) != "second" {
		t.Fatalf("rest of the stream: %q, %v", rest, err)
	}
}
