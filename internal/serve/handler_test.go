package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/store"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.DefaultRows == 0 {
		cfg.DefaultRows = 200
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestHandlerErrors drives the HTTP layer through every refusal path and
// asserts both the status code and the structured error body.
func TestHandlerErrors(t *testing.T) {
	svc := newTestService(t, Config{TenantBudgetBytes: 64})
	// Seed the shared store with bytes owned by "greedy" so its budget
	// check trips without a prior run.
	if err := svc.Tiers().Hot().PutBytesHint("deadbeef", make([]byte, 128),
		store.RewardHint{Owner: "greedy"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad json", `{"tenant": `, 400, CodeBadRequest},
		{"unknown field", `{"tenant":"a","app":"census","bogus":1}`, 400, CodeBadRequest},
		{"missing tenant", `{"app":"census"}`, 400, CodeBadRequest},
		{"unknown app", `{"tenant":"a","app":"nonsense"}`, 400, CodeUnknownApp},
		{"unknown system", `{"tenant":"a","app":"census","system":"spark"}`, 400, CodeUnknownSystem},
		{"retired system", `{"tenant":"a","app":"census","system":"helix-prob"}`, 400, CodeUnknownSystem},
		{"over budget", `{"tenant":"greedy","app":"census"}`, 403, CodeOverBudget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var body ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not structured JSON: %v", err)
			}
			if body.Error.Code != tc.wantCode {
				t.Fatalf("error code = %q, want %q", body.Error.Code, tc.wantCode)
			}
			if body.Error.Message == "" {
				t.Fatal("error message is empty")
			}
		})
	}
}

// TestHandlerSubmitAndStatus runs one real submission end-to-end over HTTP
// and checks the response and status schema.
func TestHandlerSubmitAndStatus(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/submit", "application/json",
		strings.NewReader(`{"tenant":"ann","app":"census"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.Schema != exec.ReportSchemaVersion {
		t.Fatalf("schema = %d, want %d", sub.Schema, exec.ReportSchemaVersion)
	}
	if sub.OutputHash == "" {
		t.Fatal("output hash is empty")
	}
	if sub.Computed == 0 {
		t.Fatal("first-contact run computed nothing")
	}
	if sub.TenantUsedBytes == 0 {
		t.Fatal("helix run materialized nothing for the tenant")
	}

	st, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var status StatusResponse
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Submissions != 1 {
		t.Fatalf("submissions = %d, want 1", status.Submissions)
	}
	if status.TenantUsedBytes["ann"] == 0 {
		t.Fatal("status does not attribute stored bytes to the tenant")
	}

	hc, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hc.Body.Close()
	if hc.StatusCode != 200 {
		t.Fatalf("healthz = %d, want 200", hc.StatusCode)
	}
}
