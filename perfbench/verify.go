package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/server"
)

// errMismatch marks a wrong answer, as opposed to a failure to run.
var errMismatch = errors.New("answer mismatch")

// verifyReads is how many reads of the verification stream each run
// checks: ten IC reads, or two Qacc/Qgs pairs.
func verifyReads(s *spec) uint64 {
	if s.isIC() {
		return 10
	}
	return 4
}

// censusQuery counts what ic-churn's writes add: vertices of the two
// types the mutation stream creates and edges of the two types it links.
// Attribute values are left out: concurrent set_attr writes to one
// vertex commit in an order the client does not observe.
const censusQuery = `
CREATE QUERY bench_census () {
  SumAccum<int> @@persons, @@comments, @@knows, @@likes;
  P = SELECT p FROM Person:p ACCUM @@persons += 1;
  C = SELECT c FROM Comment:c ACCUM @@comments += 1;
  K = SELECT p FROM Person:p -(Knows)- Person:q ACCUM @@knows += 1;
  L = SELECT p FROM Person:p -(Likes>)- Comment:c ACCUM @@likes += 1;
  PRINT @@persons, @@comments, @@knows, @@likes;
}
`

// verify checks the server's answers against an in-process engine over
// the same graph: the seeded CSV graph, with ic-churn's acknowledged
// writes applied in op order. It compares verification reads
// (ic-churn's only touch attributes no write sets), a census on
// ic-churn, and Qacc's group counts against Qgs's on appb-agg. It
// returns a one-line summary.
func verify(s *spec, st *stream, csvDir, url string, acked []uint64) (string, error) {
	g, err := graph.LoadCSVDir(csvDir)
	if err != nil {
		return "", fmt.Errorf("verify: loading reference graph: %w", err)
	}
	for _, i := range acked {
		if err := ldbc.Apply(g, st.at(i).mut); err != nil {
			return "", fmt.Errorf("verify: applying write %d: %w", i, err)
		}
	}
	sources := s.sources()
	if s.mix[classWrite] > 0 {
		sources["bench_census"] = censusQuery
	}
	eng := core.New(g, core.Options{})
	for name, src := range sources {
		if err := eng.Install(src); err != nil {
			return "", fmt.Errorf("verify: installing %s: %w", name, err)
		}
	}
	ref := server.New(server.Config{Engine: eng})
	hc := &http.Client{Timeout: opTimeout}
	if s.mix[classWrite] > 0 {
		resp, err := hc.Post(url+"/queries", "text/plain", strings.NewReader(censusQuery))
		if err != nil {
			return "", fmt.Errorf("verify: installing census: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return "", fmt.Errorf("verify: installing census: status %d", resp.StatusCode)
		}
	}

	check := func(name string, params map[string]any) (*runResponse, error) {
		got, err := runQuery(hc, url, name, params)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		want, err := runInProcess(ref, name, params)
		if err != nil {
			return nil, fmt.Errorf("verify: reference: %w", err)
		}
		if got.answer() != want.answer() {
			return nil, fmt.Errorf("%w: %s %v\n gsqld:     %s\n reference: %s", errMismatch, name, params, got.answer(), want.answer())
		}
		return got, nil
	}
	var printed []string
	for k := uint64(0); k < verifyReads(s); k++ {
		i := baseVerify + k*uint64(len(st.pattern))
		for st.at(i).class != classRead { // ic-churn: the period's first read
			i++
		}
		o := st.at(i)
		r, err := check(o.name, o.params)
		if err != nil {
			return "", err
		}
		if !s.isIC() {
			printed = append(printed, string(mustJSON(r.Printed)))
		}
	}
	note := fmt.Sprintf("%d reads equal the in-process engine", verifyReads(s))
	if s.mix[classWrite] > 0 {
		r, err := check("bench_census", map[string]any{})
		if err != nil {
			return "", err
		}
		note += fmt.Sprintf("; census after %d acknowledged writes equal: %s", len(acked), mustJSON(r.Printed))
	}
	if !s.isIC() {
		// Ops 2k and 2k+1 are Qacc and Qgs over one window: the
		// per-grouping-set group counts must agree.
		for k := 0; k+1 < len(printed); k += 2 {
			if groupCounts(printed[k]) != groupCounts(printed[k+1]) {
				return "", fmt.Errorf("%w: Qacc group counts %s, Qgs %s", errMismatch, printed[k], printed[k+1])
			}
		}
		note += "; Qacc group counts equal Qgs's"
	}
	return note, nil
}

// runInProcess runs one query through the reference server's handler,
// so both sides render answers with the same code.
func runInProcess(h http.Handler, name string, params map[string]any) (*runResponse, error) {
	body := mustJSON(map[string]any{"params": params})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/queries/"+name+"/run", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("run %s: %d %s", name, rec.Code, rec.Body.String())
	}
	var out runResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// groupCounts extracts the printed row of group counts; Qacc and Qgs
// name their accumulators differently, so only the values compare.
func groupCounts(printed string) string {
	var tables []struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal([]byte(printed), &tables); err != nil {
		return "unparsable: " + printed
	}
	var rows [][]any
	for _, t := range tables {
		rows = append(rows, t.Rows...)
	}
	return string(mustJSON(rows))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and raw JSON reach here
	}
	return b
}
