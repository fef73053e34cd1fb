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
// cmd/cascadegw deploys them, each node's Client the default: each node's
// loop serves its connections, or, with plain set, net/http does, the
// node's writer hiding Hijack.
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
		var h http.Handler = n
		if plain {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { n.ServeHTTP(netHTTPOnly{w, w.(io.ReaderFrom)}, r) })
		}
		srv := httptest.NewServer(h)
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
// served by the nodes' loops, and by net/http with every node's writer
// hiding Hijack. Every client-visible answer, every node's placements,
// counters and cost ledger, and the origin's request count must be equal:
// the connection carries the protocol and changes nothing in it.
func TestHopChainMatchesHTTP(t *testing.T) {
	type outcome struct {
		answers []string
		nodes   []string
		origin  int64
		served  [3][2]int64 // per node: requests net/http and the loop served
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
				if strings.HasPrefix(k, "X-Cascade-") && k != http.CanonicalHeaderKey(headerTraceCtx) {
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
			out.nodes = append(out.nodes, fmt.Sprintf("node %d: hits %d misses %d inserts %d revalidations %d held %v dcache %d ledger %+v",
				n.ID, n.hits.Load(), n.misses.Load(), n.inserts.Load(), n.revalidations.Load(), held, n.st.DCacheLen(), n.Ledger().Snapshot()))
			out.served[i] = [2]int64{n.served[servedHTTP].Load(), n.served[servedLoop].Load()}
		}
		out.origin = c.origin.Load()
		return out
	}
	hop, plain := run(false), run(true)

	for i, s := range hop.served {
		// The loop serves all but each connection's first request.
		if s[1] <= s[0] || plain.served[i][1] != 0 || s[0]+s[1] != plain.served[i][0] {
			t.Errorf("node %d served %v (net/http, loop) under its loop and %v under net/http; want most on the loop, none, and the same total",
				i, s, plain.served[i])
		}
	}
	if hop.origin != plain.origin {
		t.Errorf("%d origin requests under the loops, %d under net/http", hop.origin, plain.origin)
	}
	for i := range hop.answers {
		if hop.answers[i] != plain.answers[i] {
			t.Fatalf("request %d: under the loops %s\nunder net/http %s", i, hop.answers[i], plain.answers[i])
		}
	}
	for i := range hop.nodes {
		if hop.nodes[i] != plain.nodes[i] {
			t.Errorf("under the loops %s\nunder net/http %s", hop.nodes[i], plain.nodes[i])
		}
	}
}

// TestHopConnectionsShutDown: cold GETs, large objects and an invalidation
// cross a chain over loop connections; Shutdown of every server then closes
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
	if open == 0 || c.nodes[1].served[servedLoop].Load() == 0 || c.nodes[2].served[servedLoop].Load() == 0 {
		t.Fatalf("%d loop connections open, nodes 1 and 2 served %d and %d requests on them; want node-to-node loops in use",
			open, c.nodes[1].served[servedLoop].Load(), c.nodes[2].served[servedLoop].Load())
	}

	for _, srv := range c.servers {
		if err := srv.Config.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
	// Shutdown closes the loop connections — well before the clients' idle
	// limit would, and while they still pool their ends.
	waitFor(t, clientIdle/2, func() bool { return hopConnsOpen(c.nodes) == 0 }, "loop connections still open after Shutdown")
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
// it holds the request until its context is done — and counts dials. The
// node's loop serves the wrapper.
func hopPeerServer(t *testing.T, entered chan<- struct{}, left chan<- error) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var dials atomic.Int64
	peer := NewNode(1, "http://upstream.invalid", 1, 1<<20, 100, func() float64 { return 0 })
	srv := httptest.NewUnstartedServer(edgeRecorder(func(w http.ResponseWriter, r *http.Request) {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
}

func idleHop(client *http.Client, url string) []*hopClientConn {
	t := client.Transport.(*upstreamTransport)
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*hopClientConn(nil), t.idle[strings.TrimPrefix(url, "http://")]...)
}

// TestHopClientIdleLimit: an idle client-side connection is reused until it
// has sat clientIdle, and then closed: the server may close it after that.
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
		t.Fatalf("%d idle connections, want 1", len(idle))
	}
	idle[0].reap.Reset(0) // it has sat clientIdle
	waitFor(t, 5*time.Second, func() bool {
		_, err := idle[0].Read(make([]byte, 1))
		return errors.Is(err, net.ErrClosed)
	}, "the connection is still open past the idle limit")
	hopGet(t, client, srv.URL+"/cascade/health")
	if got := dials.Load(); got != 2 {
		t.Fatalf("an exchange after the idle limit dialed %d times in all; want a fresh dial", got)
	}
}

// TestHopClientCloseIdle: CloseIdleConnections on the upstream client closes
// its idle connections to a node and to a plain HTTP server alike, and the
// next exchange with either dials.
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
	if h, p := hopDials.Load(), httpDials.Load(); h != 1 || p != 1 || len(idleHop(client, hop.URL)) != 1 || len(idleHop(client, plain.URL)) != 1 {
		t.Fatalf("three rounds dialed the node %d and the HTTP server %d times, %d and %d idle connections; want 1 each",
			h, p, len(idleHop(client, hop.URL)), len(idleHop(client, plain.URL)))
	}
	client.CloseIdleConnections()
	if n := len(idleHop(client, hop.URL)) + len(idleHop(client, plain.URL)); n != 0 {
		t.Fatalf("%d idle connections after CloseIdleConnections", n)
	}
	exchanges()
	if h, p := hopDials.Load(), httpDials.Load(); h != 2 || p != 2 {
		t.Fatalf("after CloseIdleConnections the hop peer was dialed %d and the HTTP peer %d times in all; want a fresh dial to each", h, p)
	}
}

// TestUpstreamBlackHole: against an upstream that accepts connections and
// never answers, every exchange in flight fails within about one budget;
// none waits behind another.
func TestUpstreamBlackHole(t *testing.T) {
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

// TestUpstreamClientContract holds the upstream client to what net/http's
// Transport does for an arbitrary server, over raw sockets. Each row's
// upstream answers the requests on its i-th accepted connection with
// conns[i] in turn ("" never answers), and closes the connection after the
// last answer, or at once past the last connection; the client sends steps
// in order. A step at or past fail must
// fail; every other must read "ok". idle is how many connections the
// client pools after each step, and dials how many it opens in all.
func TestUpstreamClientContract(t *testing.T) {
	const (
		ok      = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
		okClose = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"
		ok10    = "HTTP/1.0 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok"
		interim = "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a.css>; rel=preload\r\n\r\n"
		hang    = ""
	)
	const budget = 300 * time.Millisecond
	for _, tc := range []struct {
		name  string
		conns [][]string
		steps []string
		fail  int
		idle  []int
		dials int64
	}{
		{"an idle connection the upstream closed: one redial", [][]string{{ok}, {ok}}, []string{"GET", "GET"}, 2, []int{1, 1}, 2},
		{"100 and 103 before the 200 are skipped", [][]string{{interim + ok, ok}}, []string{"GET", "GET"}, 2, []int{1, 1}, 1},
		{"Connection: close: the next GET dials", [][]string{{okClose}, {ok}}, []string{"GET", "GET"}, 2, []int{0, 1}, 2},
		{"HTTP/1.0: the next GET dials", [][]string{{ok10}, {ok}}, []string{"GET", "GET"}, 2, []int{0, 1}, 2},
		{"a timeout on a reused connection is not retried", [][]string{{ok, hang}}, []string{"GET", "GET"}, 1, []int{1, 0}, 1},
		{"a POST is not retried", [][]string{{ok}, {ok}}, []string{"GET", "POST"}, 1, []int{1, 0}, 1},
		{"a head past the cap fails", [][]string{{"HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("a", 2<<20) + "\r\n\r\n"}}, []string{"GET"}, 0, []int{0}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var dials atomic.Int64
			answered := make(chan struct{}, 2) // one per answer a row holds
			var wg sync.WaitGroup
			defer wg.Wait()
			defer ln.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					dials.Add(1)
					if i >= len(tc.conns) {
						conn.Close()
						continue
					}
					answers := tc.conns[i]
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer conn.Close()
						br := bufio.NewReader(conn)
						for i, a := range answers {
							r, err := http.ReadRequest(br)
							if err != nil {
								return
							}
							io.Copy(io.Discard, r.Body) //nolint:errcheck
							if a == hang {
								io.Copy(io.Discard, br) //nolint:errcheck // until the client hangs up
								return
							}
							conn.Write([]byte(a)) //nolint:errcheck
							if i == len(answers)-1 {
								conn.Close()
							}
							answered <- struct{}{}
						}
					}()
				}
			}()
			client := NewUpstreamClient(budget)
			defer client.CloseIdleConnections()
			base := "http://" + ln.Addr().String()
			for i, method := range tc.steps {
				var sent io.Reader
				if method == http.MethodPost {
					sent = strings.NewReader("x")
				}
				req, err := http.NewRequest(method, base+"/objects/1", sent)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := client.Do(req)
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				switch {
				case i >= tc.fail && err == nil:
					t.Fatalf("step %d (%s) read %q, want an error", i, method, body)
				case i < tc.fail && (err != nil || string(body) != "ok"):
					t.Fatalf("step %d (%s): %q, %v", i, method, body, err)
				case i < tc.fail:
					<-answered // and the connection closed, if that was its last
				}
				if got := len(idleHop(client, base)); got != tc.idle[i] {
					t.Fatalf("after step %d (%s): %d idle connections, want %d", i, method, got, tc.idle[i])
				}
			}
			if got := dials.Load(); got != tc.dials {
				t.Fatalf("%d dials, want %d", got, tc.dials)
			}
		})
	}
}

// TestOldHopOfferAnswered: a build from before this one offered each new
// connection to a peer an upgrade on its first request. A node answers the
// offer as the plain request it also is — its real 200, no 101, no Upgrade
// header — on a connection its loop takes over. The old client reads any
// answer but "101 Switching Protocols" with "Upgrade: cascade-hop/1" as a
// refusal, records the peer as HTTP-only, and keeps plain keep-alive
// connections to it, which the loop serves too.
func TestOldHopOfferAnswered(t *testing.T) {
	n := NewNode(0, "http://upstream.invalid", 1, 1<<20, 100, func() float64 { return 0 })
	srv := httptest.NewServer(n)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const offer = "GET /cascade/health HTTP/1.1\r\nHost: peer\r\nConnection: Upgrade\r\nUpgrade: cascade-hop/1\r\n\r\n"
	if _, err := conn.Write([]byte(offer + "GET /cascade/health HTTP/1.1\r\nHost: peer\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Upgrade") != "" || resp.Close {
			t.Fatalf("answer %d: %s, Upgrade %q, close %v; want a kept-alive 200 and no Upgrade", i, resp.Status, resp.Header.Get("Upgrade"), resp.Close)
		}
	}
	if loop, std := n.served[servedLoop].Load(), n.served[servedHTTP].Load(); loop != 2 || std != 0 {
		t.Fatalf("the offer and the request after it: %d served by the loop, %d by net/http; want both by the loop", loop, std)
	}
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
		t.Fatalf("%d idle connections after the cancelled exchange, want none", len(idle))
	}
	hopGet(t, client, srv.URL+"/cascade/health")
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d dials; want the exchange after the cancelled one on a fresh connection", got)
	}
}

// FuzzHopConn feeds arbitrary bytes, as they would follow the request a
// connection was taken over at, to the serving loop over net.Pipe, with a
// node behind it. pad, when set, inserts
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
			return upstreamReply(http.StatusOK, 4, []byte("abcd"), HeaderDecision, "0;0=0")
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
			newHopServerConn(server, &http.Server{Handler: h}, context.Background()).serve(hopRequest{})
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
// over loopback — request out, the node's hit, the body back — two ways:
// from the upstream client, served by the node's loop (loop); and from
// net/http's client, served by net/http with the node's Hijack hidden
// (nethttp). loop against nethttp is what the node's own connections save
// per exchange at both ends.
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
		{"loop", srv.URL, NewUpstreamClient(DefaultUpstreamTimeout)},
		{"nethttp", std.URL, &http.Client{Transport: &http.Transport{DisableCompression: true}}},
	} {
		client := arm.client
		b.Run(arm.name, func(b *testing.B) {
			defer client.CloseIdleConnections()
			req, err := http.NewRequest(http.MethodGet, arm.url+"/objects/7", nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set(headerPath, "0;0.5;1;2")
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
