package server

import "testing"

// hasOrders reports whether any pass record in a trace response carries
// planner order lines.
func hasOrders(out map[string]any) bool {
	passes, _ := out["passes"].([]any)
	for _, p := range passes {
		if m, ok := p.(map[string]any); ok {
			if o, ok := m["orders"].([]any); ok && len(o) > 0 {
				return true
			}
		}
	}
	return false
}

// TestQueryPlannerDefaultOn: served queries always evaluate with the
// runtime join planner, and its per-pass orders ride along in the trace
// response. (Planner ≡ body-order answers is TestStrategiesAgree's
// comparison with the naive oracle in internal/engine.)
func TestQueryPlannerDefaultOn(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: chainSrc})

	resp, out := postQuery(t, ts.URL, `{"goal": "a(X,Y)", "trace": true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	if !hasOrders(out) {
		t.Fatalf("default trace has no per-pass orders: %v", out["passes"])
	}
}
