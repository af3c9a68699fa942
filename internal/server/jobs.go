package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/lattice"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/utility"
)

// JobState is the lifecycle of an asynchronous anonymization job.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// jobSpec is a fully resolved anonymization task: the search runs against
// the dataset's long-lived Problem (warm bucketization cache) with a
// criterion that shares that Problem's engine.
type jobSpec struct {
	dataset   string
	method    string
	criterion privacy.Criterion
	critName  string
	utility   utility.Metric
	problem   *anonymize.Problem
}

// anonymizeResult is a finished job's payload (also the JSON wire shape).
type anonymizeResult struct {
	Dataset string `json:"dataset"`
	// Version is the dataset version the search was pinned to: appends
	// that landed while the job ran do not affect it, and a client can
	// tell whether the result still describes the current data.
	Version   int64  `json:"version"`
	Method    string `json:"method"`
	Criterion string `json:"criterion"`
	// QI gives the dimension order of every node below.
	QI []string `json:"quasi_identifiers"`
	// Nodes are the minimal safe generalization levels (chain search
	// returns at most one). Empty means no safe generalization exists.
	Nodes  [][]int `json:"nodes"`
	Exists bool    `json:"exists"`
	// Best is the utility-maximizing node among Nodes, when requested.
	Best      *bestNode `json:"best,omitempty"`
	Evaluated int       `json:"evaluated"`
	Inferred  int       `json:"inferred"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// bestNode is the utility-ranked winner of a multi-node search.
type bestNode struct {
	Node       []int   `json:"node"`
	Utility    string  `json:"utility"`
	Buckets    int     `json:"buckets"`
	MinEntropy float64 `json:"min_entropy"`
}

// ctxCriterion aborts a criterion (and with it the whole lattice search)
// once the job's context is cancelled; this is what makes job cancellation
// and deadline-bounded shutdown cooperative rather than abandoning
// goroutines.
type ctxCriterion struct {
	ctx   context.Context
	inner privacy.Criterion
}

// Name implements privacy.Criterion.
func (c ctxCriterion) Name() string { return c.inner.Name() }

// Satisfied implements privacy.Criterion.
func (c ctxCriterion) Satisfied(bz *bucket.Bucketization) (bool, error) {
	if err := c.ctx.Err(); err != nil {
		return false, err
	}
	return c.inner.Satisfied(bz)
}

// run executes the search described by the spec. The whole job — search
// and utility ranking — runs on one pinned snapshot of the dataset, so
// appends landing mid-search never mix versions into the result; the
// snapshot's version is reported so clients can compare it with the
// dataset's current one.
func (sp *jobSpec) run(ctx context.Context) (*anonymizeResult, error) {
	crit := ctxCriterion{ctx: ctx, inner: sp.criterion}
	snap := sp.problem.Snapshot()
	begin := time.Now()
	var (
		nodes []lattice.Node
		stats lattice.Stats
		err   error
	)
	switch sp.method {
	case "minimal":
		nodes, stats, err = snap.MinimalSafe(crit)
	case "incognito":
		nodes, stats, err = snap.MinimalSafeIncognito(crit)
	case "chain":
		var node lattice.Node
		var ok bool
		node, ok, stats, err = snap.ChainSearch(crit)
		if ok {
			nodes = []lattice.Node{node}
		}
	default:
		err = fmt.Errorf("unknown method %q", sp.method)
	}
	if err != nil {
		return nil, err
	}
	res := &anonymizeResult{
		Dataset:   sp.dataset,
		Version:   snap.Version(),
		Method:    sp.method,
		Criterion: sp.critName,
		QI:        sp.problem.QI,
		Nodes:     make([][]int, len(nodes)),
		Exists:    len(nodes) > 0,
		Evaluated: stats.Evaluated,
		Inferred:  stats.Inferred,
	}
	for i, n := range nodes {
		res.Nodes[i] = []int(n.Clone())
	}
	if res.Exists && sp.utility != nil {
		idx, bz, err := snap.BestByUtility(nodes, sp.utility)
		if err != nil {
			return nil, err
		}
		res.Best = &bestNode{
			Node:       []int(nodes[idx].Clone()),
			Utility:    sp.utility.Name(),
			Buckets:    len(bz.Buckets),
			MinEntropy: bz.MinEntropy(),
		}
	}
	res.ElapsedMS = float64(time.Since(begin)) / float64(time.Millisecond)
	return res, nil
}

// job is one tracked submission.
type job struct {
	id     string
	spec   *jobSpec
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    JobState
	result   *anonymizeResult
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
}

// snapshot returns the job's externally visible state under its lock.
func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{ID: j.id, State: j.state, Result: j.result, Error: j.errMsg}
	if !j.started.IsZero() && j.state == JobRunning {
		st.RunningMS = float64(time.Since(j.started)) / float64(time.Millisecond)
	}
	return st
}

// jobStatus is the GET /v1/jobs/{id} wire shape.
type jobStatus struct {
	ID        string           `json:"id"`
	State     JobState         `json:"state"`
	RunningMS float64          `json:"running_ms,omitempty"`
	Result    *anonymizeResult `json:"result,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// jobManager runs jobs from a bounded queue on a fixed worker set.
type jobManager struct {
	metrics *metrics
	queue   chan *job

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, oldest first, for history eviction
	nextID int
	closed bool
	// maxHistory bounds how many jobs (including finished ones, kept for
	// polling) are retained; oldest terminal jobs are evicted first. A
	// resident daemon would otherwise leak one result per submission.
	maxHistory int

	wg sync.WaitGroup
}

func newJobManager(workers, queueSize, maxHistory int, m *metrics) *jobManager {
	jm := &jobManager{
		metrics:    m,
		queue:      make(chan *job, queueSize),
		jobs:       make(map[string]*job),
		maxHistory: maxHistory,
	}
	jm.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer jm.wg.Done()
			for j := range jm.queue {
				jm.run(j)
			}
		}()
	}
	return jm
}

// queueDepth reports jobs waiting (not yet picked up by a worker).
func (m *jobManager) queueDepth() int { return len(m.queue) }

// submit enqueues a spec. It fails when the bounded queue is full
// (backpressure: the caller surfaces 503) or the manager is draining.
func (m *jobManager) submit(spec *jobSpec) (*job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		cancel()
		return nil, fmt.Errorf("server is shutting down")
	}
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%06d", m.nextID),
		spec:    spec,
		ctx:     ctx,
		cancel:  cancel,
		state:   JobQueued,
		created: time.Now(),
	}
	select {
	case m.queue <- j:
	default:
		m.nextID--
		cancel()
		return nil, fmt.Errorf("job queue full (%d pending)", cap(m.queue))
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	m.metrics.countJob("queued")
	return j, nil
}

// evictLocked drops the oldest terminal jobs once the retained set exceeds
// maxHistory. Queued and running jobs are never evicted (they are bounded
// by the queue and worker counts), so a polling client can only lose a
// result that has been sitting finished behind maxHistory newer jobs.
func (m *jobManager) evictLocked() {
	for len(m.jobs) > m.maxHistory {
		evicted := false
		for i, id := range m.order {
			j, ok := m.jobs[id]
			if !ok {
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
			j.mu.Lock()
			terminal := j.state == JobDone || j.state == JobFailed || j.state == JobCancelled
			j.mu.Unlock()
			if terminal {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still live
		}
	}
}

// get looks a job up by id.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// cancelJob cancels a queued or running job; terminal jobs are left alone.
// It reports whether the job existed.
func (m *jobManager) cancelJob(id string) (*job, bool) {
	j, ok := m.get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		// The worker will observe the state and skip it.
		j.state = JobCancelled
		j.finished = time.Now()
		m.metrics.countJob("cancelled")
	case JobRunning:
		// The ctxCriterion aborts the search; run() records the state.
	}
	j.mu.Unlock()
	j.cancel()
	return j, true
}

// run executes one dequeued job.
func (m *jobManager) run(j *job) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return // cancelled while waiting
	}
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()

	res, err := j.spec.run(j.ctx)

	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case j.ctx.Err() != nil:
		j.state = JobCancelled
		m.metrics.countJob("cancelled")
	case err != nil:
		j.state = JobFailed
		j.errMsg = err.Error()
		m.metrics.countJob("failed")
	default:
		j.state = JobDone
		j.result = res
		m.metrics.countJob("done")
	}
}

// shutdown stops intake and drains: queued and running jobs finish, then
// the workers exit. If ctx expires first, every live job is cancelled (the
// ctxCriterion aborts its search promptly) and shutdown still waits for
// the workers before returning ctx.Err().
func (m *jobManager) shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.jobs {
			j.cancel()
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
