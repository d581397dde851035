package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/serve"
)

// Every stack has two solver slots in total on two processors: one
// node with two slots, or two nodes with one slot and one processor
// each behind a coordinator. Anything else the daemons would pick for
// themselves is left at their defaults.
const totalSlots = 2

// stack is the system under test booted in process: leastd node
// stacks on loopback listeners and, for the coordinator workload,
// leastcoord in front of them. Clients only ever talk HTTP to base.
type stack struct {
	base     string // what clients talk to: the node, or the coordinator
	nodeURLs []string
	mgrs     []*serve.Manager
	servers  []*http.Server
	serving  sync.WaitGroup // the Serve goroutines
	coord    *coord.Coordinator
}

func bootStack(w *workload, dir string) (*stack, error) {
	st := &stack{}
	nodes, slots := w.shape()
	var members []coord.NodeConfig
	for i := 0; i < nodes; i++ {
		cfg := serve.Config{MaxConcurrent: slots, Procs: slots}
		if w.fleet {
			cfg.JournalDir = filepath.Join(dir, fmt.Sprintf("journal-n%d", i))
		}
		m, err := serve.OpenManager(cfg)
		if err != nil {
			st.shutdown()
			return nil, fmt.Errorf("boot node %d: %w", i, err)
		}
		st.mgrs = append(st.mgrs, m)
		url, err := st.listen(serve.NewAPI(m).Handler())
		if err != nil {
			st.shutdown()
			return nil, err
		}
		st.nodeURLs = append(st.nodeURLs, url)
		members = append(members, coord.NodeConfig{Name: fmt.Sprintf("n%d", i), URL: url})
	}
	st.base = st.nodeURLs[0]
	if w.coord {
		c, err := coord.New(coord.Config{Nodes: members})
		if err != nil {
			st.shutdown()
			return nil, fmt.Errorf("boot coordinator: %w", err)
		}
		st.coord = c
		c.CheckHealth()
		c.SyncGossip()
		url, err := st.listen(c.Handler())
		if err != nil {
			st.shutdown()
			return nil, err
		}
		st.base = url
	}
	return st, nil
}

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	// Serve returns when shutdown closes the server; that error is the
	// expected http.ErrServerClosed.
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// shutdown closes the listeners and waits for their Serve goroutines,
// then drains the coordinator and the managers.
func (st *stack) shutdown() {
	for _, srv := range st.servers {
		_ = srv.Close() // listeners on loopback; nothing to flush
	}
	st.serving.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.coord != nil {
		st.coord.Shutdown(ctx)
	}
	for _, m := range st.mgrs {
		m.Shutdown(ctx)
	}
}

// newClient returns a client that keeps exactly one connection alive,
// so "2 client connections" is a property of the load, not a hope.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// do issues one request and returns the status and the whole body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

// postJSON marshals v, posts it and decodes a 2xx reply into out.
func postJSON(c *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	code, b, err := do(c, http.MethodPost, url, body)
	if err != nil {
		return err
	}
	if code < 200 || code > 299 {
		return fmt.Errorf("POST %s: HTTP %d: %.200s", url, code, b)
	}
	return json.Unmarshal(b, out)
}

func getJSON(c *http.Client, url string, out any) error {
	code, b, err := do(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %.200s", url, code, b)
	}
	return json.Unmarshal(b, out)
}

// awaitTerminal follows a server-sent-events stream until the first
// frame that is not "progress" and decodes its data into out. The
// returned time is when the terminal frame's data line was read.
func awaitTerminal(c *http.Client, url string, out any) (string, time.Time, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event != "" && event != "progress":
			at := time.Now()
			return event, at, json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), out)
		}
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	return "", time.Time{}, fmt.Errorf("GET %s: stream ended without a terminal frame", url)
}

// scrape reads a Prometheus text exposition into name -> value,
// skipping labelled series.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	code, b, err := do(c, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: HTTP %d", base, code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// ledger is a sum of /metrics scrapes over the nodes, plus the
// coordinator's own exposition when there is one.
type ledger struct {
	nodes map[string]float64
	coord map[string]float64
}

func (st *stack) scrapeAll(c *http.Client) (ledger, error) {
	l := ledger{nodes: make(map[string]float64), coord: make(map[string]float64)}
	for _, u := range st.nodeURLs {
		m, err := scrape(c, u)
		if err != nil {
			return l, err
		}
		for k, v := range m {
			l.nodes[k] += v
		}
	}
	if st.coord != nil {
		m, err := scrape(c, st.base)
		if err != nil {
			return l, err
		}
		l.coord = m
	}
	return l, nil
}
