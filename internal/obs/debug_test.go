package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// get fetches url and returns its status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServeDebug: the one debug server every host starts serves pprof,
// the registry as Prometheus text, /healthz and the host's own routes —
// and no expvar.
func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.hits").Add(3)
	ds, err := ServeDebug("127.0.0.1:0", reg, map[string]http.HandlerFunc{
		"/statusz": func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "host route") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr

	for _, c := range []struct {
		path   string
		status int
		want   string // a substring of the body ("" checks the status only)
	}{
		{"/metrics", http.StatusOK, "# TYPE test_hits counter\ntest_hits 3\n"},
		{"/healthz", http.StatusOK, "ok\n"},
		{"/debug/pprof/", http.StatusOK, ""},
		{"/statusz", http.StatusOK, "host route"},
		{"/debug/vars", http.StatusNotFound, ""},
	} {
		status, body := get(t, base+c.path)
		if status != c.status || !strings.Contains(body, c.want) {
			t.Errorf("GET %s = %d %q, want %d with %q", c.path, status, body, c.status, c.want)
		}
	}

	bare, err := ServeDebug("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if status, body := get(t, "http://"+bare.Addr+"/metrics"); status != http.StatusOK || body != "" {
		t.Errorf("nil registry: GET /metrics = %d %q, want an empty 200", status, body)
	}
}
