package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	least "repro"
	"repro/internal/query"
	"repro/internal/serve"
)

// ---- job --------------------------------------------------------------

// jobRequest is job k's submission: by reference on the registered
// dataset, or the inline CSV of fleet task k. Job 0 of a single-dataset
// workload repeats the learn-phase spec so its served graph can be
// compared with the library's; all later variants are new to the node.
func (p *pass) jobRequest(k int) serve.SubmitRequestV2 {
	w, sz := p.r.w, p.in.sz
	if !w.fleet {
		v := 0
		if k > 0 {
			v = 1000 + k
		}
		return serve.SubmitRequestV2{DatasetRef: p.dsRef, Center: true, Spec: w.spec(sz, v, 0)}
	}
	t := p.in.manifest[k%sz.tasks]
	return serve.SubmitRequestV2{CSV: t.CSV, Header: true, Center: true, Spec: w.spec(sz, 5000+k, 0)}
}

func (p *pass) job(span int) {
	if !p.r.w.fleet {
		if p.ds == nil {
			p.r.op(false, "job: no ingested dataset to register")
			return
		}
		// The file dataset goes in through the manager, as an embedding
		// application would hand it over: POST /v2/datasets only takes
		// inline rows, and inline rows take the row path.
		info, _, err := p.st.mgrs[0].RegisterDataset(p.ds)
		if !p.r.op(err == nil, "register dataset: %v", err) {
			return
		}
		p.dsRef = info.ID
	}
	// Milliseconds per job, keyed by the metric each series feeds.
	ms := make(map[string][]float64)
	took := func(name string, d time.Duration) { ms[name] = append(ms[name], d.Seconds()*1e3) }
	_, total := repeat(p.window(), p.in.sz.jobMin, func(k int) {
		sp := p.r.tr.begin("job", span)
		defer p.r.tr.end(sp)
		var st serve.StatusV2
		t0 := time.Now()
		post := p.r.tr.begin("http.POST /v2/jobs", sp)
		err := postJSON(p.c, p.st.base+"/v2/jobs", p.jobRequest(k), &st)
		p.r.tr.end(post)
		accepted := time.Now()
		if !p.r.op(err == nil, "job %d: %v", k, err) {
			return
		}
		sse := p.r.tr.begin("http.SSE /v2/jobs/{id}/events", sp)
		event, seen, err := awaitTerminal(p.c, p.st.base+"/v2/jobs/"+st.ID+"/events", &st)
		p.r.tr.end(sse)
		if !p.r.op(err == nil && event == string(serve.Done), "job %d (%s): terminal %q: %v %s", k, st.ID, event, err, st.Error) {
			return
		}
		p.jobs = append(p.jobs, st.ID)
		took("job_p50_ms", seen.Sub(t0))
		took("serve.submit_ms", accepted.Sub(t0))
		took("serve.queue_wait_ms", st.Started.Sub(st.Created))
		took("serve.run_ms", st.Finished.Sub(st.Started))
		took("serve.notify_ms", seen.Sub(st.Finished))
	})
	p.e2e.set("job_p50_ms", median(ms["job_p50_ms"]), total.Seconds(), len(p.jobs))
	for _, name := range []string{"serve.submit_ms", "serve.queue_wait_ms", "serve.run_ms", "serve.notify_ms"} {
		p.layer.set(name, median(ms[name]), total.Seconds(), len(p.jobs))
	}
	if !p.r.w.fleet && len(p.jobs) > 0 && len(p.learns) > 0 && p.learns[0].res != nil {
		p.sameGraph(p.jobs[0], p.learns[0])
	}
}

// sameGraph checks that the graph a job serves is byte for byte what
// the library learned in process from the same data and spec. Both
// fleet workloads are held to the same library bytes, so they are held
// to each other's.
func (p *pass) sameGraph(job string, l learned) {
	var want []byte
	if l.res.Weights != nil {
		want = query.CompileDense(l.res.Weights, graphTau, l.names).NetworkJSON()
	} else {
		want = query.CompileCSR(l.res.SparseWeights, graphTau, l.names).NetworkJSON()
	}
	code, got, err := do(p.c, http.MethodGet, fmt.Sprintf("%s/v2/jobs/%s/graph?tau=%g", p.st.base, job, graphTau), nil)
	p.r.op(err == nil && code == http.StatusOK && bytes.Equal(got, want),
		"job %s: served graph differs from the in-process learn (HTTP %d, %v, %d vs %d bytes)", job, code, err, len(got), len(want))
}

// ---- batch ------------------------------------------------------------

// batchManifest is repetition rep's manifest. Fleets resubmit the
// generated manifest with fresh solver seeds from the second
// repetition on; single-dataset workloads submit by-reference tasks.
func (p *pass) batchManifest(rep int) []least.ManifestTask {
	w, sz := p.r.w, p.in.sz
	if w.fleet {
		if rep == 0 {
			return p.in.manifest
		}
		out := append([]least.ManifestTask(nil), p.in.manifest...)
		for i := range out {
			out[i].Spec = w.spec(sz, 10000*rep+p.in.source[i], 0) // duplicates stay duplicates
		}
		return out
	}
	out := make([]least.ManifestTask, sz.tasks)
	for i := range out {
		lambda := 0.0
		if len(w.batchL1) > 0 {
			lambda = w.batchL1[i%len(w.batchL1)]
		}
		out[i] = least.ManifestTask{ID: fmt.Sprintf("t%04d", i), DatasetRef: p.dsRef, Center: true,
			Spec: w.spec(sz, 10+rep*sz.tasks+i, lambda)}
	}
	return out
}

func (p *pass) batch(span int) {
	before, err := p.st.scrapeAll(p.c)
	if !p.r.op(err == nil, "scrape before batch: %v", err) {
		return
	}
	var rates, admits []float64
	var last serve.BatchStatus
	tasks, solved := 0, 0
	dups := 0
	if p.r.w.fleet {
		dups = p.in.sz.dups
	}
	_, total := repeat(p.window(), 1, func(rep int) {
		manifest := p.batchManifest(rep)
		sp := p.r.tr.begin("batch", span)
		defer p.r.tr.end(sp)
		var st serve.BatchStatus
		t0 := time.Now()
		post := p.r.tr.begin("http.POST /v2/batches", sp)
		err := postJSON(p.c, p.st.base+"/v2/batches", serve.BatchRequest{Tasks: manifest}, &st)
		p.r.tr.end(post)
		admit := time.Since(t0)
		if !p.r.op(err == nil, "batch %d: %v", rep, err) {
			return
		}
		sse := p.r.tr.begin("http.SSE /v2/batches/{id}/events", sp)
		event, seen, err := awaitTerminal(p.c, p.st.base+"/v2/batches/"+st.ID+"/events", &st)
		p.r.tr.end(sse)
		if !p.r.op(err == nil && event == string(serve.BatchDone), "batch %d (%s): terminal %q: %v", rep, st.ID, event, err) {
			return
		}
		p.r.op(st.Done == st.Total && st.Failed == 0 && st.Cancelled == 0 && st.Total == len(manifest),
			"batch %s: done %d failed %d cancelled %d of %d tasks", st.ID, st.Done, st.Failed, st.Cancelled, len(manifest))
		p.r.op(st.Deduped == dups, "batch %s: %d tasks deduped, %d duplicates planted", st.ID, st.Deduped, dups)
		rates = append(rates, float64(st.Done)/seen.Sub(t0).Seconds())
		admits = append(admits, admit.Seconds()*1e3)
		tasks += len(manifest)
		solved += st.Total - st.Deduped - st.Cached
		if rep == 0 {
			last = st
		}
	})
	p.e2e.set("networks_per_s", median(rates), total.Seconds(), len(rates))
	if len(rates) == 0 {
		return
	}
	after, err := p.st.scrapeAll(p.c)
	if !p.r.op(err == nil, "scrape after batch: %v", err) {
		return
	}
	delta := func(a, b map[string]float64, name string) float64 { return b[name] - a[name] }
	dn := func(name string) float64 { return delta(before.nodes, after.nodes, name) }
	dc := func(name string) float64 { return delta(before.coord, after.coord, name) }
	// The ledger identity: every task either cost one finished job on
	// some node or was answered by an identical task or a cached result.
	p.r.op(dn("least_jobs_done_total") == float64(solved), "ledger: %g jobs done on the nodes, %d tasks were neither deduped nor cached", dn("least_jobs_done_total"), solved)

	var page serve.TaskPage
	err = getJSON(p.c, fmt.Sprintf("%s/v2/batches/%s/tasks?limit=1000", p.st.base, last.ID), &page)
	if p.r.op(err == nil && len(page.Tasks) == last.Total, "batch %s: task table: %v (%d rows)", last.ID, err, len(page.Tasks)) {
		p.batchJobs = page.Tasks
	}
	if p.r.w.fleet {
		p.sameGraphSample()
	}

	w := total.Seconds()
	p.layer.set("serve.batch_admit_ms", median(admits), w, len(admits))
	split := 0.0
	if p.st.coord != nil {
		split = median(admits)
	}
	p.layer.set("coord.batch_split_ms", split, w, len(admits))
	p.layer.set("serve.tasks_deduped", float64(last.Deduped), w, 1)
	p.layer.set("serve.tasks_cached", float64(last.Cached), w, 1)
	p.layer.set("serve.gangs", dn("least_gangs_total"), w, 1)
	p.layer.set("serve.gang_jobs", dn("least_gang_jobs_total"), w, 1)
	p.layer.set("serve.result_cache_hits", dn("least_result_cache_hits_total"), w, 1)
	p.layer.set("serve.http_requests", dn("least_http_requests_total"), w, 1)
	p.layer.set("journal.records", dn("least_journal_records_total"), w, 1)
	p.layer.set("journal.bytes_per_task", dn("least_journal_bytes_total")/float64(tasks), w, tasks)
	p.layer.set("journal.fsyncs", dn("least_journal_fsyncs_total"), w, 1)
	perTask := 0.0
	if p.st.coord != nil {
		perTask = dn("least_http_requests_total") / float64(tasks)
	}
	p.layer.set("coord.upstream_requests_per_task", perTask, w, tasks)
	p.layer.set("coord.steals", dc("least_coord_steals_total"), w, 1)
	p.layer.set("coord.tasks_stolen", dc("least_coord_tasks_stolen_total"), w, 1)
	p.layer.set("coord.sub_batches", dc("least_coord_sub_batches_total"), w, 1)
	if p.r.tr != nil && !p.warm {
		p.batchTrace(last, rates[0])
	}
}

// sameGraphSample compares the served graph of a seeded sample of the
// batch's tasks with the learn phase's in-process results.
func (p *pass) sameGraphSample() {
	rng := rand.New(rand.NewSource(p.r.seed))
	n := len(p.learns)
	if n > len(p.batchJobs) {
		n = len(p.batchJobs)
	}
	sample := 8
	if sample > n {
		sample = n
	}
	for _, i := range rng.Perm(n)[:sample] {
		if l := p.learns[i]; l.res != nil && p.batchJobs[i].Job != "" {
			p.sameGraph(p.batchJobs[i].Job, l)
		}
	}
}

// batchTrace derives the batch's per-layer numbers that need one
// status read per job: how busy the slots were, and how long the
// coordinator took to notice the last sub-batch finish.
func (p *pass) batchTrace(st serve.BatchStatus, rate float64) {
	wall := float64(st.Done) / rate
	seen := make(map[string]bool)
	var busy float64
	for _, t := range p.batchJobs {
		if t.Job == "" || seen[t.Job] {
			continue
		}
		seen[t.Job] = true
		var js serve.StatusV2
		if err := getJSON(p.c, p.st.base+"/v2/jobs/"+t.Job, &js); err != nil {
			p.r.op(false, "job status %s: %v", t.Job, err)
			continue
		}
		busy += js.Finished.Sub(js.Started).Seconds()
	}
	p.layer.set("serve.slot_busy_ratio", busy/(totalSlots*wall), wall, len(seen))
	lag := 0.0
	if p.st.coord != nil {
		var lastNode time.Time
		for _, u := range p.st.nodeURLs {
			var subs []serve.BatchStatus
			if err := getJSON(p.c, u+"/v2/batches", &subs); err != nil {
				p.r.op(false, "node batches %s: %v", u, err)
				continue
			}
			for _, s := range subs {
				if s.Finished.After(lastNode) && !s.Finished.After(st.Finished) {
					lastNode = s.Finished
				}
			}
		}
		if !lastNode.IsZero() {
			lag = st.Finished.Sub(lastNode).Seconds() * 1e3
		}
	}
	p.layer.set("coord.fold_lag_ms", lag, wall, 1)
}
