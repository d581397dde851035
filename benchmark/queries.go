package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// ---- query ------------------------------------------------------------

// workingSet picks the done jobs and, per job, the lowest thresholds at
// which the learned graph is acyclic (d-separation is refused on a
// cyclic one), using the summary verb. These reads also fill the
// compiled-form cache, so the timed loop below only sees hits.
func (p *pass) workingSet() []target {
	var jobs []string
	if p.r.w.fleet {
		seen := make(map[string]bool)
		for _, t := range p.batchJobs {
			if t.Job != "" && !seen[t.Job] {
				seen[t.Job] = true
				jobs = append(jobs, t.Job)
			}
		}
	} else {
		jobs = p.jobs
	}
	if len(jobs) > p.in.sz.queryJobs {
		jobs = jobs[:p.in.sz.queryJobs]
	}
	var out []target
	for _, job := range jobs {
		found := 0
		for _, tau := range queryTaus {
			var sum struct {
				IsDAG bool `json:"is_dag"`
			}
			err := getJSON(p.c, fmt.Sprintf("%s/v2/jobs/%s/query/summary?tau=%g", p.st.base, job, tau), &sum)
			if !p.r.op(err == nil, "summary %s: %v", job, err) {
				break
			}
			if sum.IsDAG {
				out = append(out, target{job, tau})
				if found++; found == p.in.sz.queryTaus {
					break
				}
			}
		}
		p.r.op(found == p.in.sz.queryTaus, "job %s: %d acyclic thresholds, want %d", job, found, p.in.sz.queryTaus)
	}
	return out
}

// queryURLs draws the seeded request mix: 40 % blanket, 30 % dsep,
// 15 % parents, 15 % children, over the working set and the d nodes.
func (p *pass) queryURLs(rng *rand.Rand, set []target, n int) []string {
	d := p.in.sz.d
	node := func() string { return fmt.Sprintf("v%d", rng.Intn(d)) }
	out := make([]string, n)
	for i := range out {
		t := set[rng.Intn(len(set))]
		base := fmt.Sprintf("%s/v2/jobs/%s/query/", p.st.base, t.job)
		q := url.Values{"tau": {fmt.Sprintf("%g", t.tau)}}
		verb := "children"
		switch r := rng.Float64(); {
		case r < 0.40:
			verb = "blanket"
		case r < 0.70:
			verb = "dsep"
		case r < 0.85:
			verb = "parents"
		}
		if verb == "dsep" {
			// x, y and the conditioning set must not overlap.
			v := rng.Perm(d)[:4]
			q.Set("x", fmt.Sprintf("v%d", v[0]))
			q.Set("y", fmt.Sprintf("v%d", v[1]))
			q.Set("z", fmt.Sprintf("v%d,v%d", v[2], v[3]))
		} else {
			q.Set("node", node())
		}
		out[i] = base + verb + "?" + q.Encode()
	}
	return out
}

// closedLoop has `clients` goroutines, one connection each, issue GETs
// back to back until the deadline and at least minEach requests each,
// and returns every latency in microseconds.
func (p *pass) closedLoop(clients int, window time.Duration, minEach int, urls func(client int) []string, span int) []float64 {
	lat := make([][]float64, clients)
	bad := make([]int, clients)
	firstBad := make([]string, clients)
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			list := urls(c)
			for i := 0; i < minEach || time.Now().Before(deadline); i++ {
				u := list[i%len(list)]
				sp := 0
				if i%256 == 0 {
					sp = p.r.tr.begin("http.GET query", span)
				}
				t0 := time.Now()
				code, body, err := do(hc, http.MethodGet, u, nil)
				lat[c] = append(lat[c], float64(time.Since(t0).Nanoseconds())/1e3)
				p.r.tr.end(sp)
				if err != nil || code != http.StatusOK || len(body) == 0 {
					if bad[c]++; bad[c] == 1 {
						firstBad[c] = fmt.Sprintf("GET %s: HTTP %d %v %.120s", u, code, err, body)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for c := range lat {
		all = append(all, lat[c]...)
		p.r.ops(len(lat[c]), bad[c], "query client %d: %d of %d requests failed, first: %s", c, bad[c], len(lat[c]), firstBad[c])
	}
	return all
}

func (p *pass) query(span int) {
	set := p.workingSet()
	if len(set) == 0 {
		p.r.op(false, "query: empty working set")
		return
	}
	before, err := p.st.scrapeAll(p.c)
	if !p.r.op(err == nil, "scrape before queries: %v", err) {
		return
	}
	start := time.Now()
	lat := p.closedLoop(2, p.window(), p.min(queryMin), func(c int) []string {
		return p.queryURLs(rand.New(rand.NewSource(p.r.seed*31+int64(c))), set, 4096)
	}, span)
	window := time.Since(start).Seconds()
	p.e2e.set("query_p50_us", median(lat), window, len(lat))
	p.layer.set("serve.query_p99_us", percentile(lat, 99), window, len(lat))
	after, err := p.st.scrapeAll(p.c)
	if !p.r.op(err == nil, "scrape after queries: %v", err) {
		return
	}
	hits := after.nodes["least_query_cache_hits_total"] - before.nodes["least_query_cache_hits_total"]
	misses := after.nodes["least_query_cache_misses_total"] - before.nodes["least_query_cache_misses_total"]
	p.layer.set("serve.query_cache_hit_ratio", hits/(hits+misses), window, int(hits+misses))
	if p.r.tr != nil && !p.warm {
		p.queryMisses(set, span)
		p.coordHop(set[0].job, span)
	}
}

// queryMisses cycles summary reads over more (job, tau) keys than the
// compiled-form cache holds; an LRU walked in a cycle longer than its
// capacity misses every time.
func (p *pass) queryMisses(set []target, span int) {
	const keys = 160 // the cache holds 128
	jobs := make([]string, 0, len(set))
	seen := make(map[string]bool)
	for _, t := range set {
		if !seen[t.job] {
			seen[t.job] = true
			jobs = append(jobs, t.job)
		}
	}
	sort.Strings(jobs)
	urls := make([]string, keys)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/v2/jobs/%s/query/summary?tau=%g", p.st.base, jobs[i%len(jobs)], 0.5+0.001*float64(i/len(jobs)))
	}
	start := time.Now()
	lat := p.closedLoop(1, 500*time.Millisecond, 2*keys, func(int) []string { return urls }, span)
	p.layer.set("serve.query_miss_p50_us", median(lat), time.Since(start).Seconds(), len(lat))
}

// coordHop is what the proxy hop adds to a status read: the same GETs
// through the coordinator and straight to the owning node.
func (p *pass) coordHop(job string, span int) {
	hop, n := 0.0, 0
	if p.st.coord != nil {
		node, local, _ := strings.Cut(job, ".")
		direct := ""
		for i, u := range p.st.nodeURLs {
			if node == fmt.Sprintf("n%d", i) {
				direct = u
			}
		}
		if p.r.op(direct != "", "coord hop: job id %q names no node", job) {
			const gets = 2000
			via := p.closedLoop(1, 0, gets, func(int) []string { return []string{p.st.base + "/v2/jobs/" + job} }, span)
			straight := p.closedLoop(1, 0, gets, func(int) []string { return []string{direct + "/v2/jobs/" + local} }, span)
			hop, n = median(via)-median(straight), gets
		}
	}
	p.layer.set("coord.hop_us", hop, 0, n)
}
