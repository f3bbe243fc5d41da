package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"wheretime/internal/engine"
	"wheretime/internal/harness"
	"wheretime/internal/storage"
)

// Request caps. They bound what one HTTP request can make the
// simulator do, not what the harness could express: a request past a
// cap is a 400, never a multi-minute simulation.
const (
	// maxBodyBytes caps the request body; cell specs are a few hundred
	// bytes.
	maxBodyBytes = 64 << 10
	// maxRecordSize caps the requested record width.
	maxRecordSize = 4096
	// maxTxns caps the requested TPC-C transaction count.
	maxTxns = 10_000
)

// cellRequest is the wire shape of POST /v1/cells. Unknown fields are
// rejected, so a typo in a field name is a 400, not a silently
// different cell.
type cellRequest struct {
	// Kind selects the workload family: "micro", "tpcd" or "tpcc".
	Kind string `json:"kind"`
	// System is the paper's system letter, "A" through "D".
	System string `json:"system"`
	// Query is the microbenchmark query abbreviation (micro only).
	Query string `json:"query,omitempty"`
	// Selectivity overrides the range-selection selectivity (micro
	// only; default is the server's base option).
	Selectivity *float64 `json:"selectivity,omitempty"`
	// RecordSize overrides the record width in bytes (micro only;
	// default is the server's base option).
	RecordSize int `json:"recordSize,omitempty"`
	// Txns is the TPC-C transaction count (tpcc only; required).
	Txns int `json:"txns,omitempty"`
	// L2KB overrides the platform's L2 size in KB.
	L2KB int `json:"l2kb,omitempty"`
	// BTB overrides the platform's BTB entry count.
	BTB int `json:"btb,omitempty"`
	// TimeoutMs bounds this request's simulation time; clamped to the
	// server's ceiling. Zero means the server default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// parseSystem maps the paper's system letter to the engine profile.
func parseSystem(s string) (engine.System, error) {
	for _, sys := range engine.Systems() {
		if s == sys.String() {
			return sys, nil
		}
	}
	return 0, fmt.Errorf("unknown system %q (want \"A\"..\"D\")", s)
}

// queryKinds lists every microbenchmark query the API accepts.
var queryKinds = []harness.QueryKind{
	harness.SRS, harness.IRS, harness.SJ, harness.GHJ,
	harness.SAG, harness.BRS, harness.JSA, harness.IXJ,
}

// parseQuery maps a query abbreviation to its kind.
func parseQuery(s string) (harness.QueryKind, error) {
	for _, q := range queryKinds {
		if s == q.String() {
			return q, nil
		}
	}
	return 0, fmt.Errorf("unknown query %q (want SRS, IRS, SJ, GHJ, SAG, BRS, JSA or IXJ)", s)
}

// decodeSpec parses and validates one cell request against the
// server's base options, returning the normalized spec and the
// request's effective deadline. Normalization fills omitted fields
// from the base options and resolves the platform config explicitly,
// so a request spelling out a default and a request omitting it land
// on the same tally key — and therefore the same coalesced flight and
// the same store entry the grid CLI would write. Every validation
// failure is an error for a 400; nothing here ever panics or touches
// the trace arenas.
func decodeSpec(opts harness.Options, maxTimeout time.Duration, body io.Reader) (harness.CellSpec, time.Duration, error) {
	var req cellRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return harness.CellSpec{}, 0, fmt.Errorf("invalid cell spec: %v", err)
	}
	if dec.More() {
		return harness.CellSpec{}, 0, errors.New("invalid cell spec: trailing data after JSON value")
	}
	sys, err := parseSystem(req.System)
	if err != nil {
		return harness.CellSpec{}, 0, err
	}

	spec := harness.CellSpec{System: sys}
	switch req.Kind {
	case "micro":
		spec.Kind = harness.CellMicro
		if req.Txns != 0 {
			return harness.CellSpec{}, 0, errors.New(`"txns" applies only to kind "tpcc"`)
		}
		q, err := parseQuery(req.Query)
		if err != nil {
			return harness.CellSpec{}, 0, err
		}
		if !harness.ValidMicro(sys, q) {
			return harness.CellSpec{}, 0, fmt.Errorf("system %s does not run %s: it uses no index (Section 5.1)", sys, q)
		}
		spec.Query = q
		spec.Selectivity = opts.Selectivity
		if req.Selectivity != nil {
			if *req.Selectivity < 0 || *req.Selectivity > 1 {
				return harness.CellSpec{}, 0, fmt.Errorf("selectivity %v out of [0, 1]", *req.Selectivity)
			}
			spec.Selectivity = *req.Selectivity
		}
		spec.RecordSize = opts.RecordSize
		if req.RecordSize != 0 {
			if req.RecordSize < storage.MinRecordSize || req.RecordSize > maxRecordSize ||
				req.RecordSize%storage.FieldSize != 0 {
				return harness.CellSpec{}, 0, fmt.Errorf("recordSize %d must be a multiple of %d in [%d, %d]",
					req.RecordSize, storage.FieldSize, storage.MinRecordSize, maxRecordSize)
			}
			spec.RecordSize = req.RecordSize
		}
	case "tpcd":
		spec.Kind = harness.CellTPCD
		// The decision-support suite generates its own layouts; the
		// micro-only knobs would silently change the tally key without
		// changing the measurement, so they are rejected.
		if req.Query != "" || req.Selectivity != nil || req.Txns != 0 || req.RecordSize != 0 {
			return harness.CellSpec{}, 0, errors.New(`kind "tpcd" takes only "system" and platform fields`)
		}
	case "tpcc":
		spec.Kind = harness.CellTPCC
		if req.Query != "" || req.Selectivity != nil || req.RecordSize != 0 {
			return harness.CellSpec{}, 0, errors.New(`kind "tpcc" takes only "system", "txns" and platform fields`)
		}
		if req.Txns < 1 || req.Txns > maxTxns {
			return harness.CellSpec{}, 0, fmt.Errorf("txns %d out of [1, %d]", req.Txns, maxTxns)
		}
		spec.Txns = req.Txns
	default:
		return harness.CellSpec{}, 0, fmt.Errorf("unknown kind %q (want \"micro\", \"tpcd\" or \"tpcc\")", req.Kind)
	}

	cfg := opts.Config
	if req.L2KB != 0 {
		cfg.L2SizeKB = req.L2KB
	}
	if req.BTB != 0 {
		cfg.BTBEntries = req.BTB
	}
	if err := cfg.Validate(); err != nil {
		return harness.CellSpec{}, 0, fmt.Errorf("platform: %v", err)
	}
	spec.Config = cfg

	timeout := maxTimeout
	if req.TimeoutMs < 0 {
		return harness.CellSpec{}, 0, fmt.Errorf("timeoutMs %d negative", req.TimeoutMs)
	}
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return spec, timeout, nil
}

// specJSON is the normalized spec echoed back in responses: what the
// server actually measured, defaults resolved.
type specJSON struct {
	Kind        string  `json:"kind"`
	System      string  `json:"system"`
	Query       string  `json:"query,omitempty"`
	Selectivity float64 `json:"selectivity,omitempty"`
	RecordSize  int     `json:"recordSize,omitempty"`
	Txns        int     `json:"txns,omitempty"`
	L2KB        int     `json:"l2kb"`
	BTB         int     `json:"btb"`
}

// specEcho renders the normalized spec for the response body.
func specEcho(spec harness.CellSpec) specJSON {
	j := specJSON{
		System: spec.System.String(),
		L2KB:   spec.Config.L2SizeKB,
		BTB:    spec.Config.BTBEntries,
	}
	switch spec.Kind {
	case harness.CellMicro:
		j.Kind = "micro"
		j.Query = spec.Query.String()
		j.Selectivity = spec.Selectivity
		j.RecordSize = spec.RecordSize
	case harness.CellTPCD:
		j.Kind = "tpcd"
	case harness.CellTPCC:
		j.Kind = "tpcc"
		j.Txns = spec.Txns
	}
	return j
}
