// Command tracegen produces request traces in the cascade text format, the
// stand-in for the paper's Boeing proxy traces (see DESIGN.md).
//
// Usage:
//
//	tracegen -o trace.txt -objects 100000 -requests 1000000 -zipf 0.8
//	tracegen -o trace.txt -squid access.log      # convert a Squid log
//	tracegen -o day.txt -merge p1.txt,p2.txt     # the paper's proxy merge
//	tracegen -o sub.txt -top-from day.txt -top 100000  # §3.1 subtrace
//	tracegen -describe sub.txt                   # workload statistics
//
// The output replays identically through cascadesim -trace or the
// cascade.NewTraceReader API.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cascade"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out      = flag.String("o", "", "output file (default stdout)")
		objects  = flag.Int("objects", 20000, "object universe size")
		requests = flag.Int("requests", 400000, "number of requests")
		clients  = flag.Int("clients", 2000, "clients")
		servers  = flag.Int("servers", 200, "origin servers")
		duration = flag.Float64("duration", 86400, "trace span in seconds")
		zipf     = flag.Float64("zipf", 0.8, "Zipf popularity exponent")
		median   = flag.Float64("median", 4096, "median object size in bytes")
		sigma    = flag.Float64("sigma", 1.3, "log-normal size sigma")
		seed     = flag.Int64("seed", 1, "generator seed")
		squid    = flag.String("squid", "", "convert this Squid access.log instead of synthesizing")
		topFrom  = flag.String("top-from", "", "extract a top-N subtrace from this trace file (the paper's §3.1 methodology)")
		topN     = flag.Int("top", 100000, "with -top-from: number of most popular objects to keep")
		describe = flag.String("describe", "", "print workload statistics of this trace file and exit")
		merge    = flag.String("merge", "", "comma-separated trace files to merge by timestamp (the paper's multi-proxy merge)")
	)
	flag.Parse()

	if *merge != "" {
		return mergeTraces(strings.Split(*merge, ","), *out)
	}

	if *describe != "" {
		f, err := os.Open(*describe)
		if err != nil {
			return err
		}
		defer f.Close()
		stats, err := cascade.TraceStats(f)
		if err != nil {
			return err
		}
		return stats.Format(os.Stdout)
	}

	if *squid != "" {
		return convertSquid(*squid, *out)
	}
	if *topFrom != "" {
		return extractTop(*topFrom, *out, *topN)
	}

	gen := cascade.NewGenerator(cascade.TraceConfig{
		Objects:    *objects,
		Requests:   *requests,
		Clients:    *clients,
		Servers:    *servers,
		Duration:   *duration,
		ZipfTheta:  *zipf,
		SizeMedian: *median,
		SizeSigma:  *sigma,
		Seed:       *seed,
	})

	var w *os.File = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	tw, err := cascade.NewTraceWriter(w, gen.Catalog())
	if err != nil {
		return err
	}
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if err := tw.WriteRequest(req); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d objects, %d requests, %.1f MB total object bytes\n",
		*objects, *requests, float64(gen.Catalog().TotalBytes)/(1<<20))
	return nil
}

func mergeTraces(ins []string, out string) error {
	var opens []func() (io.ReadCloser, error)
	for _, in := range ins {
		in := strings.TrimSpace(in)
		if in == "" {
			continue
		}
		opens = append(opens, func() (io.ReadCloser, error) { return os.Open(in) })
	}
	var dst *os.File = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	merged, err := cascade.MergeTraces(opens, dst)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: merged %d requests from %d traces\n", merged, len(opens))
	return nil
}

func extractTop(in, out string, n int) error {
	open := func() (io.ReadCloser, error) { return os.Open(in) }
	var dst *os.File = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	stats, err := cascade.ExtractTopObjects(open, dst, n)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: kept top %d/%d objects, %d/%d requests (%.1f%% coverage)\n",
		stats.KeptObjects, stats.InputObjects, stats.KeptRequests, stats.InputRequests,
		100*stats.RequestCoverage)
	return nil
}

func convertSquid(in, out string) error {
	src, err := os.Open(in)
	if err != nil {
		return err
	}
	defer src.Close()
	var dst *os.File = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	stats, err := cascade.ConvertSquidLog(src, dst)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: converted %d/%d lines: %d requests, %d objects, %d clients, %d servers\n",
		stats.Requests, stats.Lines, stats.Requests, stats.Objects, stats.Clients, stats.Servers)
	return nil
}
