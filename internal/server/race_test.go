package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestConcurrentClients hammers the service from many goroutines at once —
// mixed disclosure, check, estimate, registration, job submission/polling
// and metrics traffic — so `go test -race ./...` exercises every piece of
// shared state: the rows published on shared buckets, the per-dataset
// bucketization caches, the registry, the job manager and the metrics
// maps.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxConcurrent: 8,
		JobWorkers:    2,
		JobQueueSize:  64,
		GateWait:      10 * time.Second, // do not shed under test load
	})
	registerHospital(t, ts.URL, "hospital")

	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan string, clients*rounds*4)

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			for r := 0; r < rounds; r++ {
				// Disclosure: half warm-identical, half varied k.
				k := 1 + (c+r)%2
				code := postJSONClient(client, ts.URL+"/v1/disclosure",
					map[string]any{"dataset": "hospital", "k": k}, nil)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("client %d round %d: disclosure = %d", c, r, code)
				}
				// Safety verdict.
				code = postJSONClient(client, ts.URL+"/v1/check",
					map[string]any{"dataset": "hospital", "criterion": "ck", "c": 0.7, "k": 1}, nil)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("client %d round %d: check = %d", c, r, code)
				}
				// Job submission; queue is sized to hold them all.
				var acc anonymizeAccepted
				code = postJSONClient(client, ts.URL+"/v1/anonymize",
					map[string]any{"dataset": "hospital", "criterion": "ck", "c": 0.7, "k": 1, "method": "chain"}, &acc)
				if code != http.StatusAccepted {
					errs <- fmt.Sprintf("client %d round %d: anonymize = %d", c, r, code)
					continue
				}
				// Poll whatever state it is in right now (no waiting; the
				// cleanup drain finishes them) and read metrics.
				var st jobStatus
				if code := getJSONClient(client, ts.URL+"/v1/jobs/"+acc.ID, &st); code != http.StatusOK {
					errs <- fmt.Sprintf("client %d round %d: job poll = %d", c, r, code)
				}
				if _, err := client.Get(ts.URL + "/metrics"); err != nil {
					errs <- fmt.Sprintf("client %d round %d: metrics: %v", c, r, err)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentRegistration races dataset registrations against reads.
func TestConcurrentRegistration(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDatasets: 128})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for r := 0; r < 4; r++ {
				name := fmt.Sprintf("h-%d-%d", c, r)
				code := postJSONClient(client, ts.URL+"/v1/datasets",
					map[string]any{"name": name, "builtin": "hospital"}, nil)
				if code != http.StatusCreated {
					t.Errorf("register %s = %d", name, code)
				}
				if code := getJSONClient(client, ts.URL+"/v1/datasets/"+name, nil); code != http.StatusOK {
					t.Errorf("get %s = %d", name, code)
				}
				postJSONClient(client, ts.URL+"/v1/disclosure",
					map[string]any{"dataset": name, "k": 1}, nil)
			}
		}(c)
	}
	wg.Wait()
}
