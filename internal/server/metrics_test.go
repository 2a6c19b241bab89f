package server

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/cluster"
	"specmpk/internal/pipeline"
	"specmpk/internal/profile"
	"specmpk/internal/server/api"
	"specmpk/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestMetricCatalogueGolden pins every registry's metric catalogue — each
// metric's name, kind and description — for a default-config machine with
// the audit ledger attached (a full job's Result.Metrics, specmpk-sim's
// stats outputs) and for a server with a cluster coordinator registered
// (/v1/metrics). perfbench and dashboards read these names. A change that
// means to add, rename or describe a metric differently regenerates the
// file with -update.
func TestMetricCatalogueGolden(t *testing.T) {
	prog, err := asm.Parse(haltAsm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipeline.New(pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	m.StatsRegistry().Add(profile.NewLedger().WriteMetrics)

	s := newTestServer(t, Options{Workers: 1})
	co, err := cluster.New(cluster.Options{Peers: []string{"http://127.0.0.1:1"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	co.RegisterMetrics(s.Registry())

	var b strings.Builder
	for _, c := range []struct {
		title string
		reg   *stats.Registry
	}{
		{"machine: default config, audit ledger attached", m.StatsRegistry()},
		{"server: cluster coordinator registered", s.Registry()},
	} {
		fmt.Fprintf(&b, "# %s\n", c.title)
		for _, v := range c.reg.Snapshot().Values {
			fmt.Fprintf(&b, "%s\t%s\t%s\n", v.Name, v.Kind, v.Desc)
		}
	}
	checkGolden(t, "metrics.golden", b.String())
}

// checkGolden compares got with testdata/name line by line, after rewriting
// the file first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s line %d drifted (regenerate with -update only on purpose):\ngot:  %s\nwant: %s", golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("got %d lines, %s %d", len(g), golden, len(w))
	}
}

// TestMetricsScrapeDuringJobs scrapes /v1/metrics from two goroutines in a
// loop while full and sampled jobs run. The server's source reads atomics,
// the stores' lengths, the queue and the latency histograms on the scraping
// goroutine, so under -race (make race-server) this checks that what it
// reads is safe to read while the workers write it: a plain counter read
// there fails it.
func TestMetricsScrapeDuringJobs(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	scrapes := make([]int, 2)
	for g := range scrapes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "server_jobs_done") {
					t.Errorf("scrape: status %d, err %v", resp.StatusCode, err)
					return
				}
				scrapes[g]++
			}
		}()
	}

	// Short jobs, so that results land in the store while the scrapers run.
	specs := []api.JobSpec{sampledSpec("specmpk"), sampledSpec("serialized")}
	for _, wl := range []string{"548.exchange2_r", "505.mcf_r"} {
		for _, mode := range pipeline.PolicyNames() {
			specs = append(specs, api.JobSpec{Workload: wl, Mode: mode, MaxCycles: 20_000})
		}
	}
	var ids []string
	for _, spec := range specs {
		info, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		if info := waitJob(t, s, id); info.State != api.StateDone {
			t.Fatalf("job %s: state %s (err %q)", id, info.State, info.Error)
		}
	}
	close(done)
	wg.Wait()
	if scrapes[0] == 0 || scrapes[1] == 0 {
		t.Fatalf("scrapes per goroutine %v: a scraper never ran alongside the jobs", scrapes)
	}

	snap := s.Registry().Snapshot()
	n := float64(len(specs))
	for name, want := range map[string]float64{
		"server.jobs.accepted":  n,
		"server.jobs.done":      n,
		"server.sampled.jobs":   2,
		"server.latency.e2e_ms": n,
		"server.cache.entries":  n,
	} {
		if got := snap.Number(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
