package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ckprivacy/docs"
	"ckprivacy/internal/anonymize"
	"ckprivacy/internal/bucket"
	"ckprivacy/internal/core"
	"ckprivacy/internal/dataload"
	"ckprivacy/internal/logic"
	"ckprivacy/internal/privacy"
	"ckprivacy/internal/utility"
	"ckprivacy/internal/worlds"
)

// ---- JSON plumbing ----

// writeJSON serializes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to salvage
}

// errorBody is the one error envelope every /v1 endpoint returns: a
// human-readable message, a stable machine-readable code, and optional
// structured detail. Codes are fixed strings clients may switch on;
// detail keys are code-specific ("offset" on syntax_error, pointing at
// the offending byte of the formula string; "accepted"/"samples" on
// zero_acceptance, the Monte-Carlo counts behind a 422 estimate).
type errorBody struct {
	Error  string         `json:"error"`
	Code   string         `json:"code"`
	Detail map[string]any `json:"detail,omitempty"`
}

// errorCode maps a response to its stable machine code. Typed errors
// override the status-derived class: a syntax error is "syntax_error"
// whatever handler surfaced it.
func errorCode(status int, err error) string {
	var se *logic.SyntaxError
	var zero *worlds.ZeroAcceptanceError
	var pe *persistError
	switch {
	case errors.As(err, &se):
		return "syntax_error"
	case errors.As(err, &zero):
		return "zero_acceptance"
	case errors.Is(err, ErrAlreadyRegistered):
		return "already_registered"
	case errors.As(err, &pe):
		// Durable-store write failures: "disk_full" when the volume is out
		// of space, "persist_failed" for anything else. Checked before the
		// status switch so the 503 does not read as "overloaded".
		return persistCodeOf(err)
	case errors.Is(err, errReadOnly):
		return "read_only"
	case errors.Is(err, errNotReady):
		return "not_ready"
	case errors.Is(err, errWALSuperseded):
		return "wal_superseded"
	case errors.Is(err, ErrReplicaDiverged):
		// A diverged replica dataset refuses reads; checked before the
		// status switch so the 503 does not read as "overloaded".
		return "replica_diverged"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case statusClientClosedRequest:
		return "client_closed_request"
	case http.StatusServiceUnavailable:
		return "overloaded"
	default:
		return "internal"
	}
}

// writeError renders err as the uniform envelope with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error(), Code: errorCode(status, err)}
	var se *logic.SyntaxError
	var zero *worlds.ZeroAcceptanceError
	switch {
	case errors.As(err, &se):
		body.Detail = map[string]any{"offset": se.Offset}
	case errors.As(err, &zero):
		body.Detail = map[string]any{"accepted": zero.Accepted, "samples": zero.Samples}
	}
	writeJSON(w, status, body)
}

// readJSON strictly decodes the request body into v: unknown fields and
// trailing garbage are 400s; a body over MaxBodyBytes is a 413 that names
// the limit.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &httpError{http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", s.cfg.MaxBodyBytes)}
		}
		return fmt.Errorf("decoding request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("request body has trailing data")
	}
	return nil
}

// ---- dataset registration ----

// syntheticSpec selects the deterministic synthetic Adult table.
type syntheticSpec struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
}

// registerDatasetRequest registers a table + hierarchies under a name.
// Exactly one source must be set.
type registerDatasetRequest struct {
	Name string `json:"name"`
	// Builtin loads a built-in bundle: "hospital" or "adult".
	Builtin string `json:"builtin,omitempty"`
	// AdultCSV is an Adult-schema CSV (with header) as text.
	AdultCSV string `json:"adult_csv,omitempty"`
	// Synthetic generates the synthetic Adult table.
	Synthetic *syntheticSpec `json:"synthetic,omitempty"`
	// Spec declares a custom schema, hierarchies and CSV rows.
	Spec *dataload.Spec `json:"spec,omitempty"`
}

// datasetInfo describes a registered dataset.
type datasetInfo struct {
	Name string `json:"name"`
	// Version is the dataset's monotonically increasing version: 1 at
	// registration, bumped by every append. Rows is the row count at that
	// version.
	Version         int64          `json:"version"`
	Rows            int            `json:"rows"`
	Sensitive       string         `json:"sensitive"`
	QI              []string       `json:"quasi_identifiers"`
	HierarchyLevels map[string]int `json:"hierarchy_levels"`
	DefaultLevels   bucket.Levels  `json:"default_levels"`
	LatticeSize     int            `json:"lattice_size"`
	CacheEntries    int            `json:"cache_entries"`
	// Releases is the number of retained recorded releases.
	Releases int `json:"releases"`
	// Encoded is always true: every dataset is dictionary-encoded at
	// registration (the columnar path every request computes on). The
	// field stays for wire compatibility.
	Encoded bool `json:"encoded"`
	// DictCardinalities is the per-attribute dictionary size — the number
	// of distinct ground values each column was encoded over. Present only
	// when Encoded.
	DictCardinalities map[string]int `json:"dictionary_cardinalities,omitempty"`
	// Persisted reports whether the dataset is backed by the durable store
	// (snapshot + WAL); false when the daemon runs without -data-dir or the
	// dataset has no rebuild source.
	Persisted bool `json:"persisted"`
	// WALRecords is the number of append/release records in the dataset's
	// live WAL segment (records since its last snapshot); 0 when not
	// persisted.
	WALRecords int `json:"wal_records"`
	// Recovered says how the dataset entered this process: "cold"
	// (registered fresh), "snapshot" (loaded from a snapshot with no WAL
	// tail) or "wal_replay" (snapshot plus replayed WAL records).
	Recovered string `json:"recovered"`
	// Replication is the follower-side replication status (lag, applied
	// position, pinned versions); absent on a leader.
	Replication *replicationInfo `json:"replication,omitempty"`
}

func describe(name string, ds *dataset) datasetInfo {
	b := ds.bundle
	levels := make(map[string]int, len(b.QI))
	for _, qi := range b.QI {
		levels[qi] = b.Hierarchies[qi].Levels()
	}
	snap := ds.problem.Snapshot()
	rs, _ := ds.releases.snapshot()
	info := datasetInfo{
		Name:              name,
		Version:           snap.Version(),
		Rows:              snap.Rows(),
		Sensitive:         b.Table.Schema.Sensitive().Name,
		QI:                b.QI,
		HierarchyLevels:   levels,
		DefaultLevels:     b.DefaultLevels,
		LatticeSize:       ds.problem.Space().Size(),
		CacheEntries:      ds.problem.CacheStats().Entries,
		Releases:          len(rs),
		Encoded:           true,
		DictCardinalities: ds.problem.Encoding().Cardinalities,
		Recovered:         ds.recovered,
		Replication:       describeReplication(ds),
	}
	if ds.persist != nil {
		info.Persisted = true
		info.WALRecords = ds.persist.log.Records()
	}
	return info
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	var req registerDatasetRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeHTTPError(w, err)
		return
	}
	sources := 0
	for _, set := range []bool{req.Builtin != "", req.AdultCSV != "", req.Synthetic != nil, req.Spec != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("exactly one of builtin, adult_csv, synthetic or spec must be set (got %d)", sources))
		return
	}
	var (
		b   *dataload.Bundle
		err error
	)
	switch {
	case req.Builtin != "":
		b, err = dataload.Builtin(req.Builtin, 0, 1)
	case req.AdultCSV != "":
		b, err = dataload.AdultFromReader(strings.NewReader(req.AdultCSV))
	case req.Synthetic != nil:
		if req.Synthetic.N > s.cfg.MaxRows {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("synthetic n %d above the %d-row limit", req.Synthetic.N, s.cfg.MaxRows))
			return
		}
		n := req.Synthetic.N
		if n <= 0 {
			n = 1000
		}
		b, err = dataload.Adult("", n, req.Synthetic.Seed)
	case req.Spec != nil:
		b, err = dataload.FromSpec(req.Name, *req.Spec)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if b.Table.Len() > s.cfg.MaxRows {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("dataset has %d rows, above the %d-row limit", b.Table.Len(), s.cfg.MaxRows))
		return
	}
	ds, err := s.register(req.Name, b)
	var pe *persistError
	switch {
	case errors.Is(err, ErrAlreadyRegistered):
		writeError(w, http.StatusConflict, err)
	case errors.As(err, &pe):
		writePersistFailure(w, pe.err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusCreated, describe(req.Name, ds))
	}
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	infos := s.registry.list()
	out := make([]datasetInfo, len(infos))
	for i, info := range infos {
		out[i] = describe(info.name, info.ds)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := s.registry.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %q not registered", name))
		return
	}
	writeJSON(w, http.StatusOK, describe(name, ds))
}

// ---- POST /v1/datasets/{name}/rows ----

// appendRowsRequest streams new rows into a registered dataset. Values
// are strings in schema column order (the same order /v1/datasets reports
// the schema in).
type appendRowsRequest struct {
	Rows [][]string `json:"rows"`
}

// appendRowsResponse reports the append's effect: the new dataset version
// and how the warm state was maintained.
type appendRowsResponse struct {
	Dataset  string `json:"dataset"`
	Version  int64  `json:"version"`
	Rows     int    `json:"rows"`
	Appended int    `json:"appended"`
	// Start is the row index (person id) of the first appended row.
	Start int `json:"start"`
	// NewCodes counts new dictionary values per attribute (absent keys saw
	// none); omitted when no attribute gained one.
	NewCodes map[string]int `json:"new_codes,omitempty"`
	// PatchedNodes/InvalidatedNodes report warm bucketization-cache
	// maintenance, one entry per cached level vector: patched entries were
	// refreshed in O(appended + buckets), invalidated ones will be rebuilt
	// lazily.
	PatchedNodes     int     `json:"patched_nodes"`
	InvalidatedNodes int     `json:"invalidated_nodes"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

func (s *Server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	name := r.PathValue("name")
	ds, ok := s.registry.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %q not registered", name))
		return
	}
	var req appendRowsRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeHTTPError(w, err)
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("rows must be a non-empty array"))
		return
	}
	rows := tableRows(req.Rows)
	release, ok := s.acquireGate(w, r)
	if !ok {
		return
	}
	defer release()
	begin := time.Now()
	// The limit check, the append and its WAL record are one critical
	// section: racing appends cannot jointly overshoot MaxRows, and the WAL
	// receives append records in the exact order the versions were minted.
	ds.appendMu.Lock()
	if err := s.healIfBrokenLocked(ds); err != nil {
		ds.appendMu.Unlock()
		writePersistFailure(w, err)
		return
	}
	if total := ds.problem.Rows() + len(rows); total > s.cfg.MaxRows {
		ds.appendMu.Unlock()
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("append would grow dataset to %d rows, above the %d-row limit", total, s.cfg.MaxRows))
		return
	}
	res, err := ds.problem.Append(rows)
	var persistErr error
	if err == nil {
		persistErr = s.logAppendLocked(ds, res.Version, req.Rows)
	}
	ds.appendMu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if persistErr != nil {
		// The rows are live in memory but their WAL record is not on disk;
		// the dataset is marked broken and the next write heals by
		// compacting the current state. The client must treat this append
		// as not durable and retry.
		writePersistFailure(w, persistErr)
		return
	}
	writeJSON(w, http.StatusOK, appendRowsResponse{
		Dataset:          name,
		Version:          res.Version,
		Rows:             res.Rows,
		Appended:         res.Appended,
		Start:            res.Start,
		NewCodes:         res.NewCodes,
		PatchedNodes:     res.PatchedNodes,
		InvalidatedNodes: res.InvalidatedNodes,
		ElapsedMS:        float64(time.Since(begin)) / float64(time.Millisecond),
	})
}

// ---- bucketization resolution shared by disclosure/check/estimate ----

// bucketizationSource selects what to analyze: a registered dataset at
// some generalization levels, or an inline list of per-bucket sensitive
// value groups.
type bucketizationSource struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset,omitempty"`
	// Levels generalizes the dataset's quasi-identifiers; empty means the
	// dataset's default levels.
	Levels bucket.Levels `json:"levels,omitempty"`
	// Groups is an inline bucketization: one sensitive-value multiset per
	// bucket. Mutually exclusive with Dataset.
	Groups [][]string `json:"groups,omitempty"`
}

// httpError carries a status code out of resolution helpers.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// writeHTTPError renders an error that may carry its own status code.
func writeHTTPError(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		writeError(w, he.code, he.err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// resolve materializes the source. For dataset sources the bucketization
// comes out of the dataset's warm cache, pinned to one version whose
// number is returned (responses echo it); ds is nil and version 0 for
// inline groups. pin, when non-zero (?version=), selects a retained
// historical version: on a follower any pinned version, on a leader only
// the current one; an unretained version is a 404.
func (s *Server) resolve(src bucketizationSource, pin int64) (*bucket.Bucketization, *dataset, int64, error) {
	switch {
	case src.Dataset != "" && src.Groups != nil:
		return nil, nil, 0, badRequest("dataset and groups are mutually exclusive")
	case len(src.Groups) > 0 && len(src.Levels) > 0:
		return nil, nil, 0, badRequest("levels only apply to a registered dataset, not inline groups")
	case pin != 0 && src.Dataset == "":
		return nil, nil, 0, badRequest("version pinning requires a registered dataset")
	case src.Dataset != "":
		ds, ok := s.registry.get(src.Dataset)
		if !ok {
			return nil, nil, 0, &httpError{http.StatusNotFound, fmt.Errorf("dataset %q not registered", src.Dataset)}
		}
		if ds.repl != nil {
			if derr := ds.repl.divergedErr(); derr != nil {
				return nil, nil, 0, &httpError{http.StatusServiceUnavailable, derr}
			}
		}
		levels := src.Levels
		if len(levels) == 0 {
			levels = ds.bundle.DefaultLevels
		}
		node, err := ds.problem.NodeForLevels(levels)
		if err != nil {
			return nil, nil, 0, badRequest("%v", err)
		}
		snap := ds.problem.Snapshot()
		if pin != 0 && pin != snap.Version() {
			pinned, ok := (*anonymize.Snapshot)(nil), false
			if ds.pins != nil {
				pinned, ok = ds.pins.get(pin)
			}
			if !ok {
				return nil, nil, 0, &httpError{http.StatusNotFound,
					fmt.Errorf("dataset %q has no pinned version %d (current %d)", src.Dataset, pin, snap.Version())}
			}
			snap = pinned
		}
		bz, err := snap.Bucketize(node)
		if err != nil {
			return nil, nil, 0, err
		}
		return bz, ds, snap.Version(), nil
	case len(src.Groups) > 0:
		total := 0
		for i, g := range src.Groups {
			if len(g) == 0 {
				return nil, nil, 0, badRequest("group %d is empty", i)
			}
			total += len(g)
		}
		if total > s.cfg.MaxRows {
			return nil, nil, 0, badRequest("inline groups hold %d tuples, above the %d-row limit", total, s.cfg.MaxRows)
		}
		return bucket.FromValues(src.Groups...), nil, 0, nil
	default:
		return nil, nil, 0, badRequest("either dataset or groups must be set")
	}
}

// checkK enforces the per-request knowledge bound.
func (s *Server) checkK(k int) error {
	if k < 0 {
		return badRequest("k must be >= 0, got %d", k)
	}
	if k > s.cfg.MaxK {
		return badRequest("k %d above the server's limit %d", k, s.cfg.MaxK)
	}
	return nil
}

// ---- POST /v1/disclosure ----

type disclosureRequest struct {
	bucketizationSource
	// K bounds the attacker's background knowledge (basic implications).
	K int `json:"k"`
	// Negation additionally computes the k-negated-atoms variant.
	Negation bool `json:"negation,omitempty"`
	// CrossBucket restricts antecedents to other buckets (§2.3 variant).
	CrossBucket bool `json:"cross_bucket,omitempty"`
	// Witness reconstructs an explicit worst-case knowledge formula.
	Witness bool `json:"witness,omitempty"`
}

type witnessBody struct {
	Target       string   `json:"target"`
	TargetBucket int      `json:"target_bucket"`
	Implications []string `json:"implications"`
}

type disclosureResponse struct {
	Dataset            string        `json:"dataset,omitempty"`
	Version            int64         `json:"version,omitempty"`
	Levels             bucket.Levels `json:"levels,omitempty"`
	K                  int           `json:"k"`
	Buckets            int           `json:"buckets"`
	Tuples             int           `json:"tuples"`
	MinEntropy         float64       `json:"min_entropy"`
	Disclosure         float64       `json:"disclosure"`
	NegationDisclosure *float64      `json:"negation_disclosure,omitempty"`
	Witness            *witnessBody  `json:"witness,omitempty"`
	ElapsedMS          float64       `json:"elapsed_ms"`
}

func (s *Server) handleDisclosure(w http.ResponseWriter, r *http.Request) {
	var req disclosureRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeHTTPError(w, err)
		return
	}
	if err := s.checkK(req.K); err != nil {
		writeHTTPError(w, err)
		return
	}
	pin, err := parsePinnedVersion(r)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	release, ok := s.acquireGate(w, r)
	if !ok {
		return
	}
	defer release()
	begin := time.Now()
	bz, ds, version, err := s.resolve(req.bucketizationSource, pin)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	eng := s.engineFor(ds)
	opt := core.Options{ForbidSameBucketAntecedent: req.CrossBucket}
	d, err := eng.MaxDisclosureOpt(bz, req.K, opt)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	resp := disclosureResponse{
		Dataset:    req.Dataset,
		Version:    version,
		Levels:     req.Levels,
		K:          req.K,
		Buckets:    len(bz.Buckets),
		Tuples:     bz.Size(),
		MinEntropy: bz.MinEntropy(),
		Disclosure: d,
	}
	if req.Negation {
		nd, err := core.NegationMaxDisclosure(bz, req.K)
		if err != nil {
			writeHTTPError(w, err)
			return
		}
		resp.NegationDisclosure = &nd
	}
	if req.Witness {
		var namer func(int) string
		if ds != nil {
			namer = ds.bundle.Namer()
		}
		wit, err := eng.Witness(bz, req.K, opt, namer)
		if err != nil {
			writeHTTPError(w, err)
			return
		}
		body := &witnessBody{
			Target:       wit.Target.String(),
			TargetBucket: wit.TargetBucket,
			Implications: make([]string, len(wit.Implications)),
		}
		for i, imp := range wit.Implications {
			body.Implications[i] = imp.String()
		}
		resp.Witness = body
	}
	resp.ElapsedMS = float64(time.Since(begin)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// ---- POST /v1/check ----

// criterionSpec selects and parameterizes a privacy criterion.
type criterionSpec struct {
	// Criterion is "ck" (default), "negation-ck", "k-anonymity",
	// "distinct-l", "entropy-l" or "recursive-cl".
	Criterion string  `json:"criterion,omitempty"`
	C         float64 `json:"c,omitempty"`
	K         int     `json:"k,omitempty"`
	L         int     `json:"l,omitempty"`
}

// buildCriterion validates the spec against the server's limits and wires
// eng into (c,k)-safety checks: the engine engineFor picks for the
// request's dataset, or for inline groups.
func (s *Server) buildCriterion(spec criterionSpec, eng *core.Engine) (privacy.Criterion, error) {
	name := spec.Criterion
	if name == "" {
		name = "ck"
	}
	switch name {
	case "ck":
		if err := s.checkK(spec.K); err != nil {
			return nil, err
		}
		if spec.C <= 0 || spec.C > 1 {
			return nil, badRequest("threshold c %v outside (0, 1]", spec.C)
		}
		return privacy.CKSafety{C: spec.C, K: spec.K, Engine: eng}, nil
	case "negation-ck":
		if err := s.checkK(spec.K); err != nil {
			return nil, err
		}
		if spec.C <= 0 || spec.C > 1 {
			return nil, badRequest("threshold c %v outside (0, 1]", spec.C)
		}
		return privacy.NegationCKSafety{C: spec.C, K: spec.K}, nil
	case "k-anonymity":
		if spec.K < 1 {
			return nil, badRequest("k-anonymity needs k >= 1, got %d", spec.K)
		}
		return privacy.KAnonymity{K: spec.K}, nil
	case "distinct-l":
		if spec.L < 1 {
			return nil, badRequest("distinct-l needs l >= 1, got %d", spec.L)
		}
		return privacy.DistinctLDiversity{L: spec.L}, nil
	case "entropy-l":
		if spec.L < 1 {
			return nil, badRequest("entropy-l needs l >= 1, got %d", spec.L)
		}
		return privacy.EntropyLDiversity{L: spec.L}, nil
	case "recursive-cl":
		if spec.L < 2 || spec.C <= 0 {
			return nil, badRequest("recursive-cl needs l >= 2 and c > 0, got l=%d c=%v", spec.L, spec.C)
		}
		return privacy.RecursiveCLDiversity{C: spec.C, L: spec.L}, nil
	default:
		return nil, badRequest("unknown criterion %q (want ck, negation-ck, k-anonymity, distinct-l, entropy-l or recursive-cl)", name)
	}
}

type checkRequest struct {
	bucketizationSource
	criterionSpec
}

type checkResponse struct {
	Dataset   string        `json:"dataset,omitempty"`
	Version   int64         `json:"version,omitempty"`
	Levels    bucket.Levels `json:"levels,omitempty"`
	Criterion string        `json:"criterion"`
	Safe      bool          `json:"safe"`
	Buckets   int           `json:"buckets"`
	ElapsedMS float64       `json:"elapsed_ms"`
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req checkRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeHTTPError(w, err)
		return
	}
	// The criterion is validated before the gate, so the dataset is looked
	// up here for its engine; an unregistered name 404s in resolve.
	ds, _ := s.registry.get(req.Dataset)
	crit, err := s.buildCriterion(req.criterionSpec, s.engineFor(ds))
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	pin, err := parsePinnedVersion(r)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	release, ok := s.acquireGate(w, r)
	if !ok {
		return
	}
	defer release()
	begin := time.Now()
	bz, _, version, err := s.resolve(req.bucketizationSource, pin)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	safe, err := crit.Satisfied(bz)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, checkResponse{
		Dataset:   req.Dataset,
		Version:   version,
		Levels:    req.Levels,
		Criterion: crit.Name(),
		Safe:      safe,
		Buckets:   len(bz.Buckets),
		ElapsedMS: float64(time.Since(begin)) / float64(time.Millisecond),
	})
}

// ---- POST /v1/estimate ----

type estimateRequest struct {
	bucketizationSource
	// Target is the atom whose posterior is estimated, e.g. "t[3]=flu"
	// (persons are named by the dataset's namer; row indices by default).
	Target string `json:"target"`
	// Phi is the knowledge formula, ";"-separated implications.
	Phi string `json:"phi,omitempty"`
	// Samples is the Monte-Carlo budget (default 100000, capped at the
	// server's maxSamples).
	Samples int `json:"samples,omitempty"`
	// Seed makes the estimate reproducible.
	Seed int64 `json:"seed,omitempty"`
}

type estimateResponse struct {
	Dataset   string  `json:"dataset,omitempty"`
	Version   int64   `json:"version,omitempty"`
	Target    string  `json:"target"`
	Prob      float64 `json:"prob"`
	StdErr    float64 `json:"std_err"`
	Accepted  int     `json:"accepted"`
	Samples   int     `json:"samples"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeHTTPError(w, err)
		return
	}
	if req.Target == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("target is required"))
		return
	}
	// Parse before resolving: syntax errors with byte offsets are the
	// cheapest rejection.
	target, err := logic.ParseAtom(req.Target)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	phi, err := logic.ParseConjunction(req.Phi)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	samples := req.Samples
	if samples <= 0 {
		samples = 100000
	}
	if samples > maxSamples {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("samples %d above the server's limit %d", samples, maxSamples))
		return
	}
	pin, err := parsePinnedVersion(r)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	release, ok := s.acquireGate(w, r)
	if !ok {
		return
	}
	defer release()
	begin := time.Now()
	bz, ds, version, err := s.resolve(req.bucketizationSource, pin)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	var namer func(int) string
	if ds != nil {
		namer = ds.bundle.Namer()
	}
	in, err := worlds.FromBucketization(bz, namer)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	est, err := in.EstimateCondProb(target, phi, samples, s.cfg.SearchWorkers, req.Seed)
	if err != nil {
		// Zero accepted worlds is not a malformed request: the formula
		// parsed and the sampling ran, but φ is either inconsistent with
		// the bucketization or too rare for the budget. 422 with the
		// sample counts lets clients tell those apart (retry with a larger
		// budget vs. fix the formula) instead of a bare 400.
		var zero *worlds.ZeroAcceptanceError
		if errors.As(err, &zero) {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeHTTPError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, estimateResponse{
		Dataset:   req.Dataset,
		Version:   version,
		Target:    target.String(),
		Prob:      est.Prob,
		StdErr:    est.StdErr,
		Accepted:  est.Accepted,
		Samples:   est.Samples,
		ElapsedMS: float64(time.Since(begin)) / float64(time.Millisecond),
	})
}

// ---- POST /v1/anonymize and the job endpoints ----

type anonymizeRequest struct {
	// Dataset names a registered dataset (inline groups have no lattice
	// to search, so a dataset is required here).
	Dataset string `json:"dataset"`
	criterionSpec
	// Method is "minimal", "incognito" (default) or "chain".
	Method string `json:"method,omitempty"`
	// Utility ranks multi-node results: "discernibility" (default),
	// "avg", "buckets" or "none".
	Utility string `json:"utility,omitempty"`
}

type anonymizeAccepted struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Poll  string   `json:"poll"`
}

func (s *Server) handleAnonymize(w http.ResponseWriter, r *http.Request) {
	var req anonymizeRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeHTTPError(w, err)
		return
	}
	if req.Dataset == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("dataset is required"))
		return
	}
	ds, ok := s.registry.get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("dataset %q not registered", req.Dataset))
		return
	}
	// Lattice-search jobs are the heaviest memo users; they run on the
	// dataset's problem-scoped bounded engine, the one its disclosure and
	// check requests warm, so a job after a check starts warm and never
	// evicts another dataset's entries.
	crit, err := s.buildCriterion(req.criterionSpec, ds.problem.Engine())
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	method := req.Method
	if method == "" {
		method = "incognito"
	}
	switch method {
	case "minimal", "incognito", "chain":
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown method %q (want minimal, incognito or chain)", method))
		return
	}
	var metric utility.Metric
	switch req.Utility {
	case "", "discernibility":
		metric = utility.Discernibility{}
	case "avg":
		metric = utility.AvgClassSize{}
	case "buckets":
		metric = utility.BucketCount{}
	case "none":
		metric = nil
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown utility %q (want discernibility, avg, buckets or none)", req.Utility))
		return
	}
	spec := &jobSpec{
		dataset:   req.Dataset,
		method:    method,
		criterion: crit,
		critName:  crit.Name(),
		utility:   metric,
		problem:   ds.problem,
	}
	j, err := s.jobs.submit(spec)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusAccepted, anonymizeAccepted{
		ID:    j.id,
		State: JobQueued,
		Poll:  "/v1/jobs/" + j.id,
	})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.cancelJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// ---- GET /v1/openapi.yaml, /healthz and /metrics ----

func (s *Server) handleOpenAPI(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/yaml; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(docs.OpenAPI)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"datasets":       len(s.registry.list()),
		"queue_depth":    s.jobs.queueDepth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeTo(w, s)
}
