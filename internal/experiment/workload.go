package experiment

import (
	"fmt"
	"os"

	"cascade/internal/model"
	"cascade/internal/sim"
	"cascade/internal/trace"
)

// Workload supplies the request stream for each simulation cell. Open must
// return a fresh source replaying exactly the same requests every time so
// that cells are comparable; the returned sources must be independent, so
// concurrent cells can replay in parallel.
type Workload interface {
	// Catalog returns the workload's object universe.
	Catalog() *trace.Catalog
	// Len returns the total number of requests per replay.
	Len() int
	// Open returns a source positioned at the first request.
	Open() (sim.Source, error)
}

// generatorWorkload adapts the synthetic generator: every Open builds an
// independent generator from the same configuration (deterministic, so all
// replays are identical) to keep concurrent cells isolated.
type generatorWorkload struct{ g *trace.Generator }

// syntheticWorkload wraps a trace generator as a Workload.
func syntheticWorkload(g *trace.Generator) Workload { return generatorWorkload{g} }

func (w generatorWorkload) Catalog() *trace.Catalog { return w.g.Catalog() }

func (w generatorWorkload) Len() int { return w.g.Len() }

func (w generatorWorkload) Open() (sim.Source, error) {
	return trace.NewGenerator(w.g.Config()), nil
}

// fileWorkload replays a recorded trace file (cascade text format).
type fileWorkload struct {
	path string
	cat  *trace.Catalog
	n    int
}

// FileWorkload validates a trace file, counts its requests, and returns a
// Workload that re-opens the file for every replay.
func FileWorkload(path string) (Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	n := 0
	for {
		_, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("experiment: trace %s has no requests", path)
	}
	return &fileWorkload{path: path, cat: r.Catalog(), n: n}, nil
}

func (w *fileWorkload) Catalog() *trace.Catalog { return w.cat }

func (w *fileWorkload) Len() int { return w.n }

func (w *fileWorkload) Open() (sim.Source, error) {
	f, err := os.Open(w.path)
	if err != nil {
		return nil, err
	}
	r, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileSource{f: f, rs: sim.ReaderSource{R: r}}, nil
}

// fileSource closes the underlying file at stream end.
type fileSource struct {
	f  *os.File
	rs sim.ReaderSource
}

func (s *fileSource) Next() (req model.Request, ok bool) {
	req, ok = s.rs.Next()
	if !ok {
		s.f.Close()
		if err := s.rs.Err(); err != nil {
			// A malformed tail is a configuration error, not a
			// per-request condition; surface it loudly.
			panic(fmt.Sprintf("experiment: trace replay failed: %v", err))
		}
	}
	return req, ok
}
