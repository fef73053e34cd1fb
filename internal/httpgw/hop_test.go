package httpgw

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/store"
)

// hopChain is an origin and three nodes over httptest servers, the way
// cmd/cascadegw deploys them: each node's Client is the default (hop
// connections), or, with plain set, a bare *http.Transport.
type hopChain struct {
	base    string
	nodes   []*Node
	servers []*httptest.Server // origin first
	origin  atomic.Int64       // object requests the origin saw
}

func newHopChain(t *testing.T, clock func() float64, plain bool) *hopChain {
	t.Helper()
	c := &hopChain{}
	o := &Origin{
		Size: func(obj model.ObjectID) int {
			if obj%5 == 0 {
				return 10000 // segmented: three 4 KiB segments
			}
			return 3000
		},
		SegmentThreshold: 4096, SegmentSize: 4096,
		Authority: coherency.NewAuthority(),
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/objects/") {
			c.origin.Add(1)
		}
		o.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c.servers = append(c.servers, srv)
	upstream := srv.URL
	c.nodes = make([]*Node, 3)
	for i := 2; i >= 0; i-- {
		n := NewNode(model.NodeID(i), upstream, float64(i+1), 24<<10, 64, clock)
		n.EnableCoherency(coherency.ModeCAS)
		if plain {
			n.Client = &http.Client{Transport: &http.Transport{DisableCompression: true}}
		}
		srv := httptest.NewServer(n)
		t.Cleanup(srv.Close)
		c.servers = append(c.servers, srv)
		c.nodes[i] = n
		upstream = srv.URL
	}
	c.base = upstream
	return c
}

// TestHopChainMatchesHTTP runs one workload — cold and warm GETs, large
// objects in segments, invalidations — through a three-node chain twice:
// over hop connections, and with every Node.Client forced onto a plain
// *http.Transport. Every client-visible answer, every node's placements,
// counters and cost ledger, and the origin's request count must be equal:
// the transport carries the protocol and changes nothing in it.
func TestHopChainMatchesHTTP(t *testing.T) {
	type outcome struct {
		answers  []string
		nodes    []string
		origin   int64
		up       [3][2]int64 // per node: hop, http exchanges
		upstream [3]int64    // per node: exchanges fetchUpstream made
	}
	run := func(plain bool) outcome {
		clock, setNow := testClock()
		c := newHopChain(t, clock, plain)
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		rng := rand.New(rand.NewSource(36))
		var out outcome
		for i := 0; i < 400; i++ {
			setNow(float64(i))
			obj := int(rng.ExpFloat64()*8) % 40
			if i%50 == 49 {
				resp, err := client.Post(fmt.Sprintf("%s/cascade/admin/invalidate?obj=%d", c.base, obj), "application/json", nil)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				out.answers = append(out.answers, fmt.Sprintf("inval %d: %d %s", obj, resp.StatusCode, body))
				continue
			}
			resp, err := client.Get(c.base + "/objects/" + strconv.Itoa(obj))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var hdr []string
			for k, v := range resp.Header {
				if strings.HasPrefix(k, "X-Cascade-") && k != http.CanonicalHeaderKey(HeaderTraceCtx) {
					hdr = append(hdr, k+"="+strings.Join(v, ","))
				}
			}
			sort.Strings(hdr)
			out.answers = append(out.answers, fmt.Sprintf("GET %d: %d %x %v", obj, resp.StatusCode, sha256.Sum256(body), hdr))
		}
		for i, n := range c.nodes {
			held := []int{}
			for obj := 0; obj < 40; obj++ {
				for idx := -1; idx < 3; idx++ {
					id := model.ObjectID(obj)
					if idx >= 0 {
						id = store.SegmentID(id, idx)
					}
					if n.Contains(id) {
						held = append(held, obj*10+idx+1)
					}
				}
			}
			n.mu.Lock()
			out.nodes = append(out.nodes, fmt.Sprintf("node %d: hits %d misses %d inserts %d revalidations %d held %v dcache %d ledger %+v",
				n.ID, n.hits, n.misses, n.inserts, n.revalidations, held, n.st.DCacheLen(), n.Ledger().Snapshot()))
			n.mu.Unlock()
			out.up[i] = [2]int64{n.upHop.Load(), n.upHTTP.Load()}
			out.upstream[i] = out.up[i][0] + out.up[i][1]
		}
		out.origin = c.origin.Load()
		return out
	}
	hop, plain := run(false), run(true)

	for i := range hop.up {
		wantHop := hop.upstream[i]
		if i == 2 {
			wantHop = 0 // the last node's upstream is the origin: HTTP
		}
		if hop.upstream[i] == 0 || hop.up[i][0] != wantHop {
			t.Errorf("node %d: %d exchanges on hop connections, %d on HTTP; want all %d on %s", i, hop.up[i][0], hop.up[i][1],
				hop.upstream[i], map[bool]string{true: "HTTP", false: "hop connections"}[i == 2])
		}
		if plain.up[i][0] != 0 {
			t.Errorf("node %d on a plain transport: %d exchanges on hop connections", i, plain.up[i][0])
		}
	}
	if !reflect.DeepEqual(hop.upstream, plain.upstream) || hop.origin != plain.origin {
		t.Errorf("upstream exchanges %v and origin requests %d over hop connections; %v and %d over HTTP", hop.upstream, hop.origin, plain.upstream, plain.origin)
	}
	for i := range hop.answers {
		if hop.answers[i] != plain.answers[i] {
			t.Fatalf("request %d: over hop connections %s\nover HTTP %s", i, hop.answers[i], plain.answers[i])
		}
	}
	for i := range hop.nodes {
		if hop.nodes[i] != plain.nodes[i] {
			t.Errorf("over hop connections %s\nover HTTP %s", hop.nodes[i], plain.nodes[i])
		}
	}
}

// TestHopConnectionsShutDown: cold GETs, large objects and an invalidation
// cross a chain over hop connections; Shutdown of every server then closes
// them all, and every goroutine they ran is gone.
func TestHopConnectionsShutDown(t *testing.T) {
	before := runtime.NumGoroutine()
	clock, setNow := testClock()
	c := newHopChain(t, clock, false)
	client := &http.Client{Transport: &http.Transport{}}
	for i := 0; i < 30; i++ {
		setNow(float64(i))
		if i == 20 {
			postInvalidate(t, c.base, 5)
		}
		resp, err := client.Get(c.base + "/objects/" + strconv.Itoa(i%10))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %d: status %d", i%10, resp.StatusCode)
		}
	}
	open := hopConnsOpen(c.nodes)
	if open == 0 || c.nodes[0].upHop.Load() == 0 || c.nodes[1].upHop.Load() == 0 {
		t.Fatalf("%d hop connections open, nodes 0 and 1 made %d and %d hop exchanges; want hop connections in use",
			open, c.nodes[0].upHop.Load(), c.nodes[1].upHop.Load())
	}

	for _, srv := range c.servers {
		if err := srv.Config.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
	// Shutdown closes the hop connections — well before the idle limit
	// would, and while the clients still pool their ends.
	waitFor(t, hopServerIdle/2, func() bool { return hopConnsOpen(c.nodes) == 0 }, "hop connections still open after Shutdown")
	client.CloseIdleConnections()
	defaultUpstreamClient.CloseIdleConnections()
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= before }, "goroutines above the baseline of %d", before)
}

func hopConnsOpen(nodes []*Node) (open int) {
	for _, n := range nodes {
		n.hops.mu.Lock()
		for _, set := range n.hops.conns {
			open += len(set)
		}
		n.hops.mu.Unlock()
	}
	return open
}

// waitFor polls cond for up to within, then fails with msg and every
// goroutine's stack.
func waitFor(t *testing.T, within time.Duration, cond func() bool, msg string, args ...any) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf(msg+"\n%s", append(args, buf[:runtime.Stack(buf, true)])...)
		}
	}
}

// hopPeerServer serves a node behind a wrapper that answers /block itself —
// it holds the request until its context is done — and counts dials.
func hopPeerServer(t *testing.T, entered chan<- struct{}, left chan<- error) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var dials atomic.Int64
	peer := NewNode(1, "http://upstream.invalid", 1, 1<<20, 100, func() float64 { return 0 })
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/block" {
			entered <- struct{}{}
			<-r.Context().Done()
			left <- r.Context().Err()
			return
		}
		peer.ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &dials
}

func hopGet(t *testing.T, client *http.Client, url string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.Proto != hopProtocol {
		t.Fatalf("GET %s answered over %q, want a hop connection", url, resp.Proto)
	}
}

func idleHop(client *http.Client, url string) []*hopClientConn {
	t := client.Transport.(*upstreamTransport)
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.peers[strings.TrimPrefix(url, "http://")]; p != nil {
		return append([]*hopClientConn(nil), p.idle...)
	}
	return nil
}

// TestHopClientIdleLimit: an idle client-side connection is reused until it
// has sat hopClientIdle, and never after: the server may close it then.
func TestHopClientIdleLimit(t *testing.T) {
	srv, dials := hopPeerServer(t, nil, nil)
	client := NewUpstreamClient(time.Second)
	defer client.CloseIdleConnections()
	hopGet(t, client, srv.URL+"/cascade/health")
	hopGet(t, client, srv.URL+"/cascade/health")
	if got := dials.Load(); got != 1 {
		t.Fatalf("two exchanges dialed %d times; want the second to reuse the first's connection", got)
	}
	idle := idleHop(client, srv.URL)
	if len(idle) != 1 {
		t.Fatalf("%d idle hop connections, want 1", len(idle))
	}
	idle[0].since = idle[0].since.Add(-hopClientIdle)
	hopGet(t, client, srv.URL+"/cascade/health")
	if got := dials.Load(); got != 2 {
		t.Fatalf("an exchange after the idle limit dialed %d times in all; want a fresh dial", got)
	}
}

// TestHopClientCloseIdle: CloseIdleConnections on the upstream client closes
// its idle hop connections and its fallback's idle HTTP connections, and the
// next exchange with either peer dials.
func TestHopClientCloseIdle(t *testing.T) {
	hop, hopDials := hopPeerServer(t, nil, nil)
	var httpDials atomic.Int64
	plain := httptest.NewUnstartedServer(&Origin{Size: func(model.ObjectID) int { return 100 }})
	plain.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			httpDials.Add(1)
		}
	}
	plain.Start()
	defer plain.Close()
	client := NewUpstreamClient(time.Minute)
	defer client.CloseIdleConnections()
	exchanges := func() {
		hopGet(t, client, hop.URL+"/cascade/health")
		resp, err := client.Get(plain.URL + "/objects/1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	for i := 0; i < 3; i++ {
		exchanges()
	}
	// The HTTP peer's first connection carried the declined offer; the
	// fallback's own is kept alive from then on.
	if h, p := hopDials.Load(), httpDials.Load(); h != 1 || p != 2 || len(idleHop(client, hop.URL)) != 1 {
		t.Fatalf("three rounds dialed the hop peer %d and the HTTP peer %d times, %d idle hop connections; want 1, 2 and 1",
			h, p, len(idleHop(client, hop.URL)))
	}
	client.CloseIdleConnections()
	if n := len(idleHop(client, hop.URL)); n != 0 {
		t.Fatalf("%d idle hop connections after CloseIdleConnections", n)
	}
	exchanges()
	if h, p := hopDials.Load(), httpDials.Load(); h != 2 || p != 3 {
		t.Fatalf("after CloseIdleConnections the hop peer was dialed %d and the HTTP peer %d times in all; want a fresh dial to each", h, p)
	}
}

// TestHopOfferBlackHole: against an upstream that accepts connections and
// never answers, every exchange in flight fails within about one budget.
// Those that arrive while the first one's offer is unanswered take the
// peer's plain pool; none waits behind the offer.
func TestHopOfferBlackHole(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	defer func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	const budget, concurrent = 400 * time.Millisecond, 6
	client := NewUpstreamClient(budget)
	defer client.CloseIdleConnections()
	start := time.Now()
	failed := make(chan time.Duration, concurrent)
	for i := 0; i < concurrent; i++ {
		go func(i int) {
			resp, err := client.Get(fmt.Sprintf("http://%s/objects/%d", ln.Addr(), i))
			if err == nil {
				resp.Body.Close()
				t.Errorf("GET %d from a black hole: %s", i, resp.Status)
			}
			failed <- time.Since(start)
		}(i)
	}
	for i := 0; i < concurrent; i++ {
		if d := <-failed; d > budget*3/2 {
			t.Errorf("an exchange ended after %v; want every one within about the %v budget", d, budget)
		}
	}
}

// TestHopOfferClosesPlainConns: exchanges that reach a node while the
// first one's offer is unanswered ride plain keep-alive connections, which
// the node's loop takes over. Once the node answers 101 none of them is
// used again, so none may stay open: each would hold a loop on the node.
func TestHopOfferClosesPlainConns(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(100 * time.Millisecond) // every miss outlasts the offer's start
		(&Origin{Size: func(model.ObjectID) int { return 500 }}).ServeHTTP(w, r)
	}))
	defer origin.Close()
	peer := NewNode(1, origin.URL, 1, 1<<20, 100, func() float64 { return 0 })
	srv := httptest.NewServer(peer)
	defer srv.Close()
	client := NewUpstreamClient(time.Minute)
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Get(srv.URL + "/objects/" + strconv.Itoa(i))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	if peer.served[servedEdge].Load() == 0 {
		t.Fatal("no exchange rode a plain connection; the test needs some during the offer")
	}
	waitFor(t, 2*time.Second, func() bool { return hopConnsOpen([]*Node{peer}) == len(idleHop(client, srv.URL)) },
		"%d loop connections open on the node; want only the client's %d idle hop connections", hopConnsOpen([]*Node{peer}), len(idleHop(client, srv.URL)))
}

// TestHopCancellation: a downstream that gives up while the upstream handler
// blocks cancels that handler's context, and its connection is not pooled
// again.
func TestHopCancellation(t *testing.T) {
	entered, left := make(chan struct{}), make(chan error, 1)
	srv, dials := hopPeerServer(t, entered, left)
	client := NewUpstreamClient(time.Minute)
	defer client.CloseIdleConnections()
	hopGet(t, client, srv.URL+"/cascade/health")

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/block", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("a cancelled exchange returned a response")
	}
	select {
	case err := <-left:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the upstream handler's context ended with %v, want cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the upstream handler's context outlived its departed downstream")
	}
	if idle := idleHop(client, srv.URL); len(idle) != 0 {
		t.Fatalf("%d idle hop connections after the cancelled exchange, want none", len(idle))
	}
	hopGet(t, client, srv.URL+"/cascade/health")
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d dials; want the exchange after the cancelled one on a fresh connection", got)
	}
}

// FuzzHopConn feeds arbitrary bytes, as they would follow the 101, to the
// serving loop over net.Pipe, with a node behind it. pad, when set, inserts
// a header of pad%2 MiB bytes after the first line, so that oversized heads
// are reachable without megabyte corpus files. The loop must not panic; it
// must dispatch, in order, a prefix of the requests net/http's server hands
// its handler for the same bytes — nothing after a malformed message, and no
// head beyond net/http's cap; and it must return, leaving no goroutine, once
// the peer hangs up.
func FuzzHopConn(f *testing.F) {
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
		want, finals, exact := hopReference(t, data)

		n := NewNode(0, "http://upstream.invalid", 1, 1<<20, 100, func() float64 { return 0 })
		n.Client = &http.Client{Transport: stubUpstream(func(r *http.Request) *http.Response {
			return upstreamReply(http.StatusOK, 4, []byte("abcd"), HeaderPlace, "0")
		})}
		var mu sync.Mutex
		var got []string
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			got = append(got, r.Method+" "+r.RequestURI)
			mu.Unlock()
			n.ServeHTTP(w, r)
		})
		server, peer := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			newHopServerConn(server, h, context.Background(), servedHop).serve(hopRequest{})
		}()
		// Answers are read until the server has answered every request the
		// input holds, then discarded until it hangs up; the peer leaves once
		// the server has taken the whole input and answered, or hung up.
		enough, drained, wrote := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(drained)
			br := bufio.NewReader(peer)
			for i := 0; i < finals; {
				method := http.MethodGet
				if i < len(want) {
					method = strings.Fields(want[i])[0]
				}
				resp, err := http.ReadResponse(br, &http.Request{Method: method})
				if err != nil {
					break
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					break
				}
				if resp.StatusCode >= 200 {
					i++
				}
			}
			close(enough)
			io.Copy(io.Discard, br) //nolint:errcheck
		}()
		go func() {
			defer close(wrote)
			peer.Write(data) //nolint:errcheck // fails once the server has hung up on malformed input
		}()
		timeout := time.After(10 * time.Second)
		for _, stage := range []chan struct{}{wrote, enough} {
			select {
			case <-stage:
			case <-drained:
			case <-timeout:
				t.Fatal("the serving loop neither answered nor hung up")
			}
		}
		peer.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("the serving loop outlived its peer")
		}
		<-drained
		<-wrote
		if len(got) > len(want) && exact {
			t.Fatalf("served %q; the input holds only %q", got, want)
		}
		for i := range got {
			if i >= len(want) {
				break
			}
			if got[i] != want[i] {
				t.Fatalf("request %d served as %q; the input holds %q there", i, got[i], want[i])
			}
		}
	})
}

// hopReference lists the requests net/http's server hands its handler for
// data, and counts the final answers it owes (edgeReference). exact is false
// when data holds a head near the cap, which either server may or may not
// accept.
func hopReference(t *testing.T, data []byte) (reqs []string, finals int, exact bool) {
	methods, finals, upto := edgeReference(data)
	_, seen := newEdgeSide(t, false).run(t, [][]byte{data}, []int{finals}, methods, 2*time.Second)
	for _, s := range seen {
		f := strings.Fields(s)
		reqs = append(reqs, f[0]+" "+f[1])
	}
	return reqs, finals, upto < 0
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// BenchmarkNodeExchange4K times one exchange of a 4 KiB object with a node
// over loopback — request out, the node's hit, the body back — three ways:
// on a hop connection; from a plain HTTP client, whose connection the node's
// loop takes over (edge); and from the same client with net/http serving the
// node, its Hijack hidden (nethttp). edge against nethttp is what the
// take-over saves per exchange; hop and edge share the server's loop and
// differ in the client.
func BenchmarkNodeExchange4K(b *testing.B) {
	const size = 4 << 10
	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return size }})
	defer origin.Close()
	up := NewNode(1, origin.URL, 1, 1<<20, 100, func() float64 { return 0 })
	srv := httptest.NewServer(up)
	defer srv.Close()
	std := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		up.ServeHTTP(netHTTPOnly{w, w.(io.ReaderFrom)}, r)
	}))
	defer std.Close()
	for _, arm := range []struct {
		name   string
		url    string
		client *http.Client
	}{
		{"hop", srv.URL, NewUpstreamClient(DefaultUpstreamTimeout)},
		{"edge", srv.URL, &http.Client{Transport: &http.Transport{DisableCompression: true}}},
		{"nethttp", std.URL, &http.Client{Transport: &http.Transport{DisableCompression: true}}},
	} {
		client := arm.client
		b.Run(arm.name, func(b *testing.B) {
			defer client.CloseIdleConnections()
			req, err := http.NewRequest(http.MethodGet, arm.url+"/objects/7", nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set(HeaderPath, "0;0.5;1;2")
			buf := make([]byte, size)
			exchange := func() *http.Response {
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
			for i := 0; i < 4 && exchange().Header.Get(HeaderHit) != "1"; i++ {
			}
			if resp := exchange(); resp.Header.Get(HeaderHit) != "1" {
				b.Fatalf("the upstream node serves %q, want its own hit", resp.Header.Get(HeaderHit))
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
