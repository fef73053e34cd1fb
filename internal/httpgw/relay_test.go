package httpgw

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/store"
)

// Kernel relays: a hop that only passes a body on moves what arrives on its
// upstream client's connection socket to socket (hopBody.relayTo). The tests below run a
// real three-node chain over loopback with bodies far above a hop reader's
// 8 KiB, so nodes 0 and 1 take that path, and check that every failure ends
// as it does on the copy path.

// relayChain is three nodes over loopback in front of a stub upstream: node
// 2 fetches from reply in-process, node 1 from node 2 and node 0 from node 1
// over loop connections, each through its own upstream client of the given
// budget; a plain HTTP client reaches node 0. The stub places nowhere, so
// every node relays.
type relayChain struct {
	nodes   [3]*Node
	servers [3]*httptest.Server
	client  *http.Client
	base    string
}

func newRelayChain(t *testing.T, budget time.Duration, reply stubUpstream, setup func(*Node)) *relayChain {
	t.Helper()
	c := &relayChain{client: &http.Client{Transport: &http.Transport{DisableCompression: true}}}
	upstream := "http://upstream.invalid"
	for i := 2; i >= 0; i-- {
		n := NewNode(model.NodeID(i), upstream, 1, 1<<20, 100, func() float64 { return 0 })
		n.Client = NewUpstreamClient(budget)
		if i == 2 {
			n.Client = &http.Client{Transport: reply}
		}
		if setup != nil {
			setup(n)
		}
		c.nodes[i], c.servers[i] = n, httptest.NewServer(n)
		upstream = c.servers[i].URL
	}
	c.base = upstream
	t.Cleanup(c.close)
	return c
}

// close shuts every server down — Shutdown closes the loop connections it
// accepted — and drops every idle connection.
func (c *relayChain) close() {
	for _, srv := range c.servers {
		srv.Config.Shutdown(context.Background()) //nolint:errcheck
		srv.Close()
	}
	for _, n := range c.nodes {
		n.Client.CloseIdleConnections()
	}
	c.client.CloseIdleConnections()
}

// idle counts node i's pooled connections to its upstream.
func (c *relayChain) idle(i int) int { return len(idleHop(c.nodes[i].Client, c.servers[i+1].URL)) }

// get fetches obj from node 0 and reads as much of the body as arrives.
func (c *relayChain) get(ctx context.Context, obj int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/objects/"+strconv.Itoa(obj), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// relayedBytes is what n relayed on the kernel path, and on the copy path.
func relayedBytes(n *Node) (kernel, copied int64) {
	return n.relayedKernel.Load(), n.relayedCopy.Load()
}

// stall answers 200 declaring all of body, sends its first sent bytes, and
// then holds the body open until the request's context is done, reporting
// that on done.
func stall(body []byte, sent int, done chan<- struct{}) func(*http.Request) *http.Response {
	return func(r *http.Request) *http.Response {
		resp := upstreamReply(http.StatusOK, int64(len(body)), nil)
		resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body[:sent]), ctxReader{r.Context(), done}))
		return resp
	}
}

type ctxReader struct {
	ctx  context.Context
	done chan<- struct{}
}

func (r ctxReader) Read([]byte) (int, error) {
	<-r.ctx.Done()
	select {
	case r.done <- struct{}{}:
	default: // nil, or already told
	}
	return 0, r.ctx.Err()
}

// TestRelayKernelShortUpstream: an upstream declares 256 KiB and sends 100
// KiB. The client gets exactly those 100 KiB and then a short body; no hop
// pools its upstream connection or places anything.
func TestRelayKernelShortUpstream(t *testing.T) {
	const declared, sent = 256 << 10, 100 << 10
	body := store.SyntheticBody(7, declared)
	c := newRelayChain(t, time.Minute, func(r *http.Request) *http.Response {
		if r.URL.Path == "/objects/1" {
			return upstreamReply(http.StatusOK, declared, body[:sent])
		}
		return upstreamReply(http.StatusOK, declared, body)
	}, nil)

	// A whole body first: it crosses both node-to-node connections in the
	// kernel, and each is pooled after it.
	got, err := c.get(context.Background(), 2)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("whole body: %d bytes, %v; want %d bytes", len(got), err, declared)
	}
	for i := 0; i < 2; i++ {
		waitFor(t, 5*time.Second, func() bool {
			k, _ := relayedBytes(c.nodes[i])
			return k == declared && c.idle(i) == 1
		}, "node %d: want the whole body relayed in the kernel and its upstream connection pooled", i)
	}

	got, err = c.get(context.Background(), 1)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !bytes.Equal(got, body[:sent]) {
		t.Fatalf("short upstream: client got %d bytes, %v; want the %d sent, then io.ErrUnexpectedEOF", len(got), err, sent)
	}
	for i, n := range c.nodes {
		if i < 2 && c.idle(i) != 0 {
			t.Errorf("node %d pooled the upstream connection that fell short", i)
		}
		inserts, mem, used := n.inserts.Load(), n.bodies.Stats().MemBytes, n.st.Used()
		if inserts != 0 || mem != used {
			t.Errorf("node %d: %d inserts, MemBytes %d, Used %d; want nothing placed and MemBytes = Used", i, inserts, mem, used)
		}
	}
}

// TestOriginRelaySplices: a node that relays the origin's answers moves
// their bodies socket to socket, as it does a peer's: every origin exchange
// rides the upstream client's own connections, not net/http's Transport.
func TestOriginRelaySplices(t *testing.T) {
	const size = 256 << 10
	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return size }})
	defer origin.Close()
	n := NewNode(0, origin.URL, 1, size/2, 100, func() float64 { return 0 }) // too small to place an object
	n.Client = NewUpstreamClient(time.Minute)
	defer n.Client.CloseIdleConnections()
	srv := httptest.NewServer(n)
	defer srv.Close()
	for obj := 1; obj <= 3; obj++ {
		resp, body := get(t, srv.URL, obj)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, store.SyntheticBody(model.ObjectID(obj), size)) || n.Contains(model.ObjectID(obj)) {
			t.Fatalf("object %d: status %d, %d bytes, placed %v; want the origin's %d bytes relayed", obj, resp.StatusCode, len(body), n.Contains(model.ObjectID(obj)), size)
		}
		waitFor(t, 5*time.Second, func() bool { k, c := relayedBytes(n); return k+c == int64(obj)*size }, "object %d: the relay counted short", obj)
	}
	if k, c := relayedBytes(n); c != 0 {
		t.Fatalf("relayed %d bytes in the kernel and copied %d; want all %d in the kernel", k, c, 3*size)
	}
}

// TestHopFirstExchangeShortCloses: the upstream falls short on the very
// first request, the one net/http serves before each node's loop takes the
// connection over. Each hop closes its connection after that failed answer
// as after any other, so the client sees the short body at once, not after
// two idle closes.
func TestHopFirstExchangeShortCloses(t *testing.T) {
	const declared, sent = 256 << 10, 100 << 10
	body := store.SyntheticBody(7, declared)
	c := newRelayChain(t, time.Minute, func(*http.Request) *http.Response {
		return upstreamReply(http.StatusOK, declared, body[:sent])
	}, nil)
	start := time.Now()
	got, err := c.get(context.Background(), 1)
	if elapsed := time.Since(start); !errors.Is(err, io.ErrUnexpectedEOF) || !bytes.Equal(got, body[:sent]) || elapsed > time.Second {
		t.Fatalf("short first answer: client got %d bytes, %v after %v; want the %d sent, then io.ErrUnexpectedEOF within 1s",
			len(got), err, elapsed, sent)
	}
}

// TestRelayKernelStalledUpstream: an upstream that stalls mid-body ends the
// relay within the hops' 100 ms budget.
func TestRelayKernelStalledUpstream(t *testing.T) {
	const budget = 100 * time.Millisecond
	body := store.SyntheticBody(7, 256<<10)
	c := newRelayChain(t, budget, stall(body, 100<<10, nil), nil)
	start := time.Now()
	got, err := c.get(context.Background(), 1)
	if elapsed := time.Since(start); err == nil || elapsed > 10*budget {
		t.Fatalf("a stalled upstream: %d bytes, %v after %v; want a short body within the %v budget", len(got), err, elapsed, budget)
	}
	if !bytes.Equal(got, body[:len(got)]) {
		t.Fatal("the short body is not the upstream's prefix")
	}
	waitFor(t, 5*time.Second, func() bool { k, _ := relayedBytes(c.nodes[1]); return k > 0 }, "node 1 relayed nothing in the kernel")
}

// TestRelayKernelClientDeparts: a client that leaves mid-relay closes every
// upstream connection on the way, unpooled; the upstream handler's
// context ends; and every goroutine returns.
func TestRelayKernelClientDeparts(t *testing.T) {
	before := runtime.NumGoroutine()
	body := store.SyntheticBody(7, 256<<10)
	done := make(chan struct{}, 1)
	c := newRelayChain(t, time.Minute, stall(body, 100<<10, done), nil)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/objects/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the upstream handler's context outlived the departed client")
	}
	waitFor(t, 5*time.Second, func() bool {
		k0, _ := relayedBytes(c.nodes[0])
		k1, _ := relayedBytes(c.nodes[1])
		return k0 > 0 && k1 > 0
	}, "nodes 0 and 1 did not finish a kernel relay")
	for i := 0; i < 2; i++ {
		if c.idle(i) != 0 {
			t.Errorf("node %d pooled its upstream connection after the client departed", i)
		}
	}
	c.close()
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= before }, "goroutines above the baseline of %d", before)
}

// TestReassemblyGenerationsSpliced is TestReassemblyGenerations' "write
// between segment 1 and 2" row in CAS over loop connections with 64 KiB
// segments: node 0 hands each accepted segment to the client's socket in the
// kernel, and the generation pin still ends the response short at the
// first segment of the new generation.
func TestReassemblyGenerationsSpliced(t *testing.T) {
	const segSize, total = 64 << 10, 3*64<<10 + 1000
	payload := func(gen uint64) []byte { return store.SyntheticBody(model.ObjectID(1000+gen), total) }
	var mu sync.Mutex
	gen, markers := uint64(1), 0
	reply := func(r *http.Request) *http.Response {
		mu.Lock()
		defer mu.Unlock()
		seg, err := parseSegmentRequest(r.Header)
		if err != nil {
			return upstreamReply(http.StatusBadRequest, 0, nil)
		}
		if !seg.on {
			markers++
			return upstreamReply(http.StatusOK, 0, nil, HeaderSegmented, formatSegmentedMarker(total, segSize), HeaderGen, strconv.FormatUint(gen, 10))
		}
		if seg.idx == 2 && gen == 1 {
			gen = 2 // a write lands between segments 1 and 2
		}
		b := payload(gen)[seg.lo():min(seg.lo()+segSize, total)]
		return upstreamReply(http.StatusPartialContent, int64(len(b)), b, HeaderGen, strconv.FormatUint(gen, 10), "ETag", etagOf(b))
	}
	c := newRelayChain(t, time.Minute, reply, func(n *Node) { n.EnableCoherency(coherency.ModeCAS) })

	got, err := c.get(context.Background(), 7)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !bytes.Equal(got, payload(1)[:2*segSize]) {
		t.Fatalf("client got %d bytes, %v; want the first two segments of generation 1, then io.ErrUnexpectedEOF", len(got), err)
	}
	if got := reassemblies(t, c.nodes[0], "truncated"); got != 1 {
		t.Fatalf("truncated = %d, want 1", got)
	}
	for i := 0; i < 2; i++ {
		waitFor(t, 5*time.Second, func() bool { k, _ := relayedBytes(c.nodes[i]); return k >= 2*segSize },
			"node %d relayed less than the two segments in the kernel", i)
	}
	// The overtaken marker is forgotten: the next GET asks again and gets
	// generation 2 whole.
	got, err = c.get(context.Background(), 7)
	if err != nil || !bytes.Equal(got, payload(2)) {
		t.Fatalf("after the write: %d bytes, %v; want generation 2 whole", len(got), err)
	}
	if mu.Lock(); markers != 2 {
		t.Errorf("%d marker fetches, want 2", markers)
	}
	mu.Unlock()
}

// TestRelayWritersRefuseOverlong: a loop connection's writer and a segment
// writer take the socket hand-off only for a limit within what they still
// owe; a longer source goes through Write, which the loop writer refuses
// whole past the declared length, as net/http's response does, and the
// segment writer stops at it.
func TestRelayWritersRefuseOverlong(t *testing.T) {
	const owed, offered = 10, 20
	up, src := tcpPair(t)
	if _, err := src.Write(bytes.Repeat([]byte("x"), 2*offered)); err != nil {
		t.Fatal(err)
	}

	var wire bytes.Buffer
	sent := bytes.Repeat([]byte("y"), 4096)
	hw := &hopWriter{req: httptest.NewRequest(http.MethodGet, "/", nil), h: http.Header{"Content-Length": {strconv.Itoa(len(sent) + owed)}},
		bw: bufio.NewWriter(&wire), declared: -1}
	hw.hold = bufio.NewWriterSize((*hopWire)(hw), hopHoldSize)
	if _, err := hw.Write(sent); err != nil || !hw.sent {
		t.Fatalf("a %d-byte write: %v, head sent %v; want the head and the bytes on the wire", len(sent), err, hw.sent)
	}
	n, err := hw.ReadFrom(&io.LimitedReader{R: up, N: offered})
	hw.bw.Flush() //nolint:errcheck
	if n != 0 || !errors.Is(err, http.ErrContentLength) || !bytes.HasSuffix(wire.Bytes(), sent) {
		t.Fatalf("loop writer owing %d took %d bytes of %d offered, %v; the wire ends in %q", owed, n, offered, err, wire.Bytes()[max(0, wire.Len()-16):])
	}

	rec := &readFromSpy{}
	sw := &segmentWriter{dst: struct {
		http.ResponseWriter
		io.ReaderFrom
	}{httptest.NewRecorder(), rec}, header: make(http.Header)}
	sw.begin(owed, true)
	sw.header.Set("Content-Length", strconv.Itoa(owed))
	if n, err := sw.ReadFrom(&io.LimitedReader{R: up, N: offered}); n != owed || !errors.Is(err, http.ErrContentLength) || rec.readFroms != 0 {
		t.Fatalf("segment writer owing %d took %d bytes of %d offered (%d through ReadFrom), %v", owed, n, offered, rec.readFroms, err)
	}
}

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (*net.TCPConn, *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a.(*net.TCPConn), b.(*net.TCPConn)
}

// FuzzHopResponse serves arbitrary bytes as an upstream's answer over
// loopback TCP, and relays whatever body the upstream client makes of them
// through copyStream into a socket. pad, when set, inserts pad%(1 MiB)
// bytes of 'a' after the first blank line, so that long bodies are
// reachable without megabyte corpus files. No panic; never a forwarded byte
// beyond what the final answer declares and holds, and those bytes are its
// body's; the connection pooled only after a keep-alive HTTP/1.1 final
// answer a plain parser reads whole, past at most five 1xx; and no
// goroutine left behind.
func FuzzHopResponse(f *testing.F) {
	sink, received := socketSink(f)
	f.Fuzz(func(t *testing.T, data []byte, pad uint32) {
		if pad %= 1 << 20; pad > 0 {
			at := bytes.Index(data, []byte("\r\n\r\n")) + 4
			if at < 4 {
				at = len(data)
			}
			data = append(append(append([]byte(nil), data[:at]...), bytes.Repeat([]byte("a"), int(pad))...), data[at:]...)
		}
		before := runtime.NumGoroutine()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			conn.Write(data)                 //nolint:errcheck // the client may hang up first
			conn.(*net.TCPConn).CloseWrite() //nolint:errcheck
			io.Copy(io.Discard, conn)        //nolint:errcheck
		}()
		addr := ln.Addr().String()
		tr := &upstreamTransport{
			timeout:  10 * time.Second,
			fallback: &http.Transport{DialContext: dialNoLinger},
			idle:     make(map[string][]*hopClientConn),
		}
		req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/objects/1", nil)
		if err != nil {
			t.Fatal(err)
		}
		var refBody []byte
		br := bufio.NewReader(bytes.NewReader(data))
		ref, refErr := http.ReadResponse(br, req)
		for interim := 1; refErr == nil && ref.StatusCode < 200 && ref.StatusCode != http.StatusSwitchingProtocols; interim++ {
			if interim > 5 {
				ref, refErr = nil, errors.New("more than five 1xx answers")
				break
			}
			ref, refErr = http.ReadResponse(br, req)
		}
		if refErr == nil {
			refBody, refErr = io.ReadAll(ref.Body)
		}

		received.reset()
		var n int64
		resp, err := tr.RoundTrip(req)
		if err == nil {
			n, _ = copyStream(sink, resp.Body)
			resp.Body.Close()
			if ref == nil {
				t.Fatalf("the client read a %d response a plain parser refuses", resp.StatusCode)
			}
			if resp.ContentLength >= 0 && n > resp.ContentLength || n > int64(len(refBody)) {
				t.Fatalf("forwarded %d bytes; the response declares %d and holds %d", n, resp.ContentLength, len(refBody))
			}
		}
		pooled := len(tr.idle[addr]) == 1
		if pooled && (refErr != nil || n != int64(len(refBody))) {
			t.Fatalf("pooled after forwarding %d of %d body bytes (%v)", n, len(refBody), refErr)
		}
		if pooled && (ref.Close || !ref.ProtoAtLeast(1, 1) || ref.StatusCode < 200) {
			t.Fatalf("pooled after a %s %d answer that ends the connection (close %v)", ref.Proto, ref.StatusCode, ref.Close)
		}
		tr.CloseIdleConnections()
		ln.Close()
		<-served
		if got := received.await(n); !bytes.Equal(got, refBody[:n]) {
			t.Fatalf("the sink received %d bytes that are not the body's first %d", len(got), n)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, %d before the exchange", runtime.NumGoroutine(), before)
			}
		}
	})
}

// dialNoLinger dials with SO_LINGER 0, so that the client's close resets
// the connection and leaves no TIME_WAIT behind each fuzz input.
func dialNoLinger(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err == nil {
		c.(*net.TCPConn).SetLinger(0) //nolint:errcheck
	}
	return c, err
}

// socketSink returns the writing end of a loopback TCP pair whose other end
// is drained into a sinkBuffer for the life of the fuzz target.
func socketSink(f *testing.F) (*net.TCPConn, *sinkBuffer) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	defer ln.Close()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		f.Fatal(err)
	}
	r, err := ln.Accept()
	if err != nil {
		f.Fatal(err)
	}
	buf := &sinkBuffer{}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(buf, r) //nolint:errcheck
	}()
	f.Cleanup(func() {
		w.Close()
		<-drained
		r.Close()
	})
	return w.(*net.TCPConn), buf
}

type sinkBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *sinkBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *sinkBuffer) reset() {
	s.mu.Lock()
	s.buf.Reset()
	s.mu.Unlock()
}

// await returns what arrived once n bytes have, or after a second.
func (s *sinkBuffer) await(n int64) []byte {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		got := int64(s.buf.Len())
		s.mu.Unlock()
		if got >= n || time.Now().After(deadline) {
			break
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

// BenchmarkRelay256K times one 256 KiB body relayed by a middle node between
// loop connections over loopback: the upstream node's hit, the middle node's
// relay, the body read by its client. kernel is the shipping path (the hop
// writer's ReadFrom, a splice); copy hides that ReadFrom behind a wrapper,
// so the same relay copies through the pooled 32 KiB buffer.
func BenchmarkRelay256K(b *testing.B) {
	const size = 256 << 10
	clock := func() float64 { return 0 }
	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return size }})
	defer origin.Close()
	up := NewNode(2, origin.URL, 1, 4<<20, 100, clock)
	upSrv := httptest.NewServer(up)
	defer upSrv.Close()
	for _, path := range []string{"kernel", "copy"} {
		b.Run(path, func(b *testing.B) {
			// Too small to be chosen for a 256 KiB object: it only relays.
			mid := NewNode(1, upSrv.URL, 1, size/2, 100, clock)
			mid.Client = NewUpstreamClient(DefaultUpstreamTimeout)
			var h http.Handler = mid
			if path == "copy" {
				h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { mid.ServeHTTP(writeOnly{w}, r) })
			}
			srv := httptest.NewServer(h)
			defer srv.Close()
			client := NewUpstreamClient(DefaultUpstreamTimeout)
			defer client.CloseIdleConnections()
			defer mid.Client.CloseIdleConnections()
			req, err := http.NewRequest(http.MethodGet, srv.URL+"/objects/7", nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set(headerPath, "0;0.5;1;2")
			buf := make([]byte, size)
			exchanges := 0
			exchange := func() *http.Response {
				exchanges++
				resp, err := client.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(resp.Body, buf); err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				return resp
			}
			// Every exchange is relayed, and a relay counts its bytes after
			// the last one left: settled waits until all of them are in.
			settled := func() (kernel, copied int64) {
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					kernel, copied = relayedBytes(mid)
					if kernel+copied == int64(exchanges)*size || time.Now().After(deadline) {
						return kernel, copied
					}
				}
			}
			for i := 0; i < 4 && exchange().Header.Get(HeaderHit) != "2"; i++ {
			}
			k0, c0 := settled()
			if resp := exchange(); resp.Header.Get(HeaderHit) != "2" || mid.Contains(7) {
				b.Fatalf("served by %q, cached in the middle %v; want the upstream node's hit, relayed", resp.Header.Get(HeaderHit), mid.Contains(7))
			}
			if k, c := settled(); (k > k0) != (path == "kernel") || (c > c0) != (path == "copy") {
				b.Fatalf("%s: the middle node relayed %d bytes in the kernel and copied %d", path, k-k0, c-c0)
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exchange()
			}
		})
	}
}

// writeOnly hides a ResponseWriter's ReadFrom; Unwrap keeps its Hijack
// reachable, so that the node's loop still takes the connection over.
type writeOnly struct{ http.ResponseWriter }

func (w writeOnly) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// TestOriginServedByLoop: an origin that is its server's whole handler is
// served by its node's loop, as any node is — a keep-alive client's GETs,
// the second on the connection the loop took over at the first.
func TestOriginServedByLoop(t *testing.T) {
	const size = 500
	o := &Origin{Size: func(model.ObjectID) int { return size }}
	srv := httptest.NewServer(o)
	defer srv.Close()
	for obj := 1; obj <= 2; obj++ {
		resp, body := get(t, srv.URL, obj)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderHit) != originName || !bytes.Equal(body, store.SyntheticBody(model.ObjectID(obj), size)) {
			t.Fatalf("object %d: status %d from %q, %d bytes; want the origin's %d", obj, resp.StatusCode, resp.Header.Get(HeaderHit), len(body), size)
		}
	}
	if got := scrapeCounter(t, o, `cascade_gw_served_total{conn="loop",node="origin"}`); got != "2" {
		t.Fatalf("the loop served %s of the client's GETs, want 2", got)
	}
}
