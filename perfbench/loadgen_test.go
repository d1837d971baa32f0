package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// stallServer answers at once, except that requests whose body names an
// index in stall are held for hold.
func stallServer(stall map[int]bool, hold time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if i, _ := strconv.Atoi(string(b)); stall[i] {
			time.Sleep(hold)
		}
		w.Write(b)
	}))
}

func indexTarget(hc *http.Client, url string) target {
	return target{
		prep: func(i int) []byte { return []byte(strconv.Itoa(i)) },
		send: func(ctx context.Context, body []byte) (int, []byte, error) { return post(ctx, hc, url, body) },
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const hold = 80 * time.Millisecond
	// Requests 5 and 6 stall both senders; 7..19 are due every 2ms while
	// they are held, so they go out late and their latency carries it.
	srv := stallServer(map[int]bool{5: true, 6: true}, hold)
	defer srv.Close()
	hc := newHTTPClient(2)
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	ss := openLoop(context.Background(), due, 2, indexTarget(hc, srv.URL))
	if len(ss) != len(due) {
		t.Fatalf("%d samples, want %d", len(ss), len(due))
	}
	for i, s := range ss {
		if s.Status != http.StatusOK || string(s.Body) != strconv.Itoa(i) || s.Due != due[i] {
			t.Fatalf("sample %d = %+v", i, s)
		}
		if s.late() < 0 || s.latency() < s.rtt() {
			t.Fatalf("sample %d: late %v, latency %v < rtt %v", i, s.late(), s.latency(), s.rtt())
		}
	}
	// Request 8 is due at 16ms but no sender is free before ~90ms.
	if s := ss[8]; s.late() < hold/2 || s.latency() < hold/2 || s.rtt() > hold/2 {
		t.Fatalf("request behind the stall: late %v, latency %v, rtt %v", s.late(), s.latency(), s.rtt())
	}
	var late []float64
	for _, s := range ss {
		late = append(late, ms(s.late()))
	}
	if q := quantile(late, 0.99); q < ms(hold/2) {
		t.Fatalf("late p99 %.1fms does not show the stall", q)
	}
	// The stall inflated only the tail: the first requests were on time.
	if ss[0].late() > hold/4 || ss[1].late() > hold/4 {
		t.Fatalf("requests before the stall were late: %v %v", ss[0].late(), ss[1].late())
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	srv := stallServer(map[int]bool{3: true}, 30*time.Millisecond)
	defer srv.Close()
	ss := closedLoop(context.Background(), 2, 100*time.Millisecond, 1000, indexTarget(newHTTPClient(2), srv.URL))
	if len(ss) < 4 {
		t.Fatalf("only %d samples", len(ss))
	}
	for i, s := range ss {
		if s.Idx != i || s.Due != s.Start || s.late() != 0 || s.latency() != s.rtt() {
			t.Fatalf("closed-loop sample %d = %+v", i, s)
		}
	}
	if ss[3].latency() < 30*time.Millisecond {
		t.Fatalf("stalled request latency %v", ss[3].latency())
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a, b := poissonSchedule(7, 500, 2000), poissonSchedule(7, 500, 2000)
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("schedule not seeded or not monotone at %d", i)
		}
	}
	// 2000 arrivals at 500/s take about 4s.
	if end := a[len(a)-1]; end < 3500*time.Millisecond || end > 4500*time.Millisecond {
		t.Fatalf("2000 arrivals at 500/s end at %v", end)
	}
}
