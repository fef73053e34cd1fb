package fault

import (
	"fmt"
	"net/http"
	"time"
)

// DroppedError is the transport error surfaced for injected message loss
// over HTTP — callers can branch on it in tests.
type DroppedError struct {
	Action Action
	URL    string
}

func (e *DroppedError) Error() string {
	return fmt.Sprintf("fault: injected %s for %s", e.Action, e.URL)
}

// roundTripper wires an Injector into an http.Client: every upstream
// request is one "message" keyed by Key. Drops, crashes and saturation
// surface as transport errors (exactly how a chain peer's failure looks to
// the gateway); delays sleep before forwarding.
type roundTripper struct {
	// Base performs the real exchange (http.DefaultTransport when nil).
	Base http.RoundTripper
	// Injector supplies verdicts; a nil Injector passes everything.
	Injector *Injector
	// Key identifies this upstream link in the injector's schedule.
	Key int64
	// Sleep implements ActDelay (time.Sleep when nil; tests inject).
	Sleep func(time.Duration)
}

// RoundTrip implements http.RoundTripper.
func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	base := rt.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if rt.Injector == nil {
		return base.RoundTrip(req)
	}
	d := rt.Injector.Next(rt.Key)
	switch d.Action {
	case ActDrop, ActCrash, ActSaturate:
		return nil, &DroppedError{Action: d.Action, URL: req.URL.String()}
	case ActDelay:
		sleep := rt.Sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(d.Delay)
	}
	return base.RoundTrip(req)
}
