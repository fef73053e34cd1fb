// Livecluster runs the coordinated caching protocol as a real concurrent
// system: an in-process cluster of cache nodes, each client goroutine
// walking its request up the tree and the response back down, placement
// decided at the serving node from piggybacked descriptors — the deployable
// counterpart of the trace-driven simulator.
//
//	go run ./examples/livecluster
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"cascade"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	gen := cascade.NewGenerator(cascade.TraceConfig{
		Objects:  2000,
		Servers:  40,
		Clients:  200,
		Requests: 30000,
		Duration: 3600,
		Seed:     3,
	})
	cat := gen.Catalog()
	net := cascade.GenerateTiers(cascade.DefaultTiersConfig(), rand.New(rand.NewSource(3)))

	cluster, err := cascade.NewCluster(cascade.ClusterConfig{
		Network:       net,
		CacheBytes:    int64(0.02 * float64(cat.TotalBytes)),
		DCacheEntries: 2000,
		AvgObjectSize: cat.AvgSize(),
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Attach clients and servers to MAN nodes, as in the paper.
	r := rand.New(rand.NewSource(3))
	mans := net.ClientAttachPoints()
	clientNode := make([]cascade.NodeID, cat.NumClients)
	for i := range clientNode {
		clientNode[i] = mans[r.Intn(len(mans))]
	}
	serverNode := make([]cascade.NodeID, cat.NumServers)
	for i := range serverNode {
		serverNode[i] = mans[r.Intn(len(mans))]
	}

	// Drive the cluster from 8 concurrent client workers sharing the
	// generated request stream.
	requests := make(chan cascade.Request, 256)
	go func() {
		defer close(requests)
		for {
			req, ok := gen.Next()
			if !ok {
				return
			}
			requests <- req
		}
	}()

	var (
		wg        sync.WaitGroup
		served    atomic.Int64
		cacheHits atomic.Int64
		totalCost int64 // microseconds, atomically accumulated
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range requests {
				res, err := cluster.Get(context.Background(),
					clientNode[req.Client], serverNode[req.Server], req.Object, req.Size)
				if err != nil {
					fmt.Fprintln(os.Stderr, "get:", err)
					return
				}
				served.Add(1)
				if res.ServedBy != cascade.NoNode {
					cacheHits.Add(1)
				}
				atomic.AddInt64(&totalCost, int64(res.Cost*1e6))
			}
		}()
	}
	wg.Wait()

	n := served.Load()
	fmt.Printf("served %d requests through %d cache nodes\n", n, net.NumCaches())
	fmt.Printf("cache hit ratio: %.3f\n", float64(cacheHits.Load())/float64(n))
	fmt.Printf("mean access cost: %.4fs\n", float64(atomic.LoadInt64(&totalCost))/1e6/float64(n))
	return nil
}
