package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's timing and answer. Times are offsets from the
// start of its phase. For an open loop Due is the scheduled send time;
// for a closed loop it equals Start.
type sample struct {
	Idx    int
	Due    time.Duration
	Start  time.Duration
	End    time.Duration
	Status int
	Body   []byte
	Err    error
}

// latency is counted from the request's due time, so a request that
// waited behind a stalled one carries that wait.
func (s sample) latency() time.Duration { return s.End - s.Due }

// rtt is the time on the wire, from the actual send.
func (s sample) rtt() time.Duration { return s.End - s.Start }

// late is how far behind its schedule the generator sent the request.
func (s sample) late() time.Duration { return s.Start - s.Due }

// target is what a loop drives: prep builds request i's body (outside
// the timed interval) and send delivers it, returning status and answer.
type target struct {
	prep func(i int) []byte
	send func(ctx context.Context, body []byte) (int, []byte, error)
}

// poissonSchedule returns n due times of a Poisson arrival process at
// rate per second, starting at zero, drawn from seed.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		due[i] = time.Duration(t * float64(time.Second))
		t += r.ExpFloat64() / rate
	}
	return due
}

// openLoop sends request i at due[i] from at most senders goroutines. A
// sender that is still waiting for an answer cannot send, so when the
// server stalls the requests behind it go out late, and their latency,
// timed from due, includes that wait.
func openLoop(ctx context.Context, due []time.Duration, senders int, tg target) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				body := tg.prep(i)
				if d := time.Until(t0.Add(due[i])); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				s := sample{Idx: i, Due: due[i], Start: time.Since(t0)}
				s.Status, s.Body, s.Err = tg.send(ctx, body)
				s.End = time.Since(t0)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(due))]
}

// closedLoop runs clients goroutines that each send the next request as
// soon as their previous one is answered, until window has elapsed or
// limit requests were sent. It returns the samples in request order.
func closedLoop(ctx context.Context, clients int, window time.Duration, limit int, tg target) []sample {
	out := make([]sample, limit)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < window && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				body := tg.prep(i)
				start := time.Since(t0)
				s := sample{Idx: i, Due: start, Start: start}
				s.Status, s.Body, s.Err = tg.send(ctx, body)
				s.End = time.Since(t0)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), limit)]
}

// newHTTPClient returns a loopback client with at most conns connections
// per host and no proxy.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends body to url and returns the status and the whole answer.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
