package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// get fetches url and returns its status, content type and body.
func get(t *testing.T, url string) (int, string, string) {
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
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestServeDebug: the one debug server every host starts serves pprof,
// the registry as Prometheus text, /healthz and the host's own routes,
// each with its content type — and no expvar, and only GET.
func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.hits").Add(3)
	ds, err := ServeDebug("127.0.0.1:0", reg, map[string]Route{
		"/statusz": {ContentType: "application/json", Write: func(w io.Writer) { fmt.Fprint(w, `{"host":"route"}`) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr

	const text = "text/plain; charset=utf-8"
	const gzip = "\x1f\x8b"
	for _, c := range []struct {
		path   string
		status int
		ctype  string // "" checks nothing
		want   string // a substring of the body ("" checks nothing)
		prefix string // the body's first bytes ("" checks nothing)
	}{
		{"/metrics", http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", "# TYPE test_hits counter\ntest_hits 3\n", ""},
		{"/healthz", http.StatusOK, text, "ok\n", ""},
		{"/statusz", http.StatusOK, "application/json", `{"host":"route"}`, ""},
		{"/debug/pprof/", http.StatusOK, text, "\theap\n", ""},
		{"/debug/pprof/heap", http.StatusOK, "application/octet-stream", "", gzip},
		{"/debug/pprof/profile?seconds=1", http.StatusOK, "application/octet-stream", "", gzip},
		{"/debug/pprof/goroutine?debug=1", http.StatusOK, text, "goroutine profile:", ""},
		{"/debug/pprof/trace?seconds=0.05", http.StatusOK, "application/octet-stream", "", "go 1."},
		{"/debug/pprof/cmdline", http.StatusOK, text, os.Args[0], ""},
		{"/debug/pprof/nosuch", http.StatusNotFound, "", "", ""},
		{"/debug/vars", http.StatusNotFound, "", "", ""},
	} {
		status, ctype, body := get(t, base+c.path)
		if status != c.status || (c.ctype != "" && ctype != c.ctype) ||
			!strings.Contains(body, c.want) || !strings.HasPrefix(body, c.prefix) {
			t.Errorf("GET %s = %d %q %.40q, want %d %q with %q, starting %q",
				c.path, status, ctype, body, c.status, c.ctype, c.want, c.prefix)
		}
	}

	resp, err := http.Post(base+"/healthz", "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Errorf("POST /healthz = %d (Allow %q), want 405 allowing GET", resp.StatusCode, resp.Header.Get("Allow"))
	}

	bare, err := ServeDebug("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if status, _, body := get(t, "http://"+bare.Addr+"/metrics"); status != http.StatusOK || body != "" {
		t.Errorf("nil registry: GET /metrics = %d %q, want an empty 200", status, body)
	}
}

// TestServeDebugHeaderDeadline: a connection that never finishes its
// header is closed, unanswered, once the header deadline passes.
func TestServeDebugHeaderDeadline(t *testing.T) {
	ds, err := serveDebug("127.0.0.1:0", nil, nil, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	conn, err := net.Dial("tcp", ds.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if n, err := conn.Read(make([]byte, 64)); n != 0 || err != io.EOF {
		t.Fatalf("read after a half-sent header = %d bytes, %v; want the server to close (EOF)", n, err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("closed after %v, want about the 50ms deadline", waited)
	}
}
