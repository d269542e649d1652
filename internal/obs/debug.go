package obs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// headerTimeout bounds how long a debug connection may take to send its
// request line and headers.
const headerTimeout = 5 * time.Second

// DebugServer is the runtime telemetry endpoint every host's -debug-addr
// starts (cmd/experiments, cmd/nucd). It answers GETs itself, one request
// per connection, so no host links net/http.
type DebugServer struct {
	Addr    string // the bound address, useful when the flag asked for :0
	ln      net.Listener
	reg     *Registry
	routes  map[string]Route
	timeout time.Duration // the header deadline
}

// Route is one of a host's own debug paths: its body's content type and
// the function that writes the body.
type Route struct {
	ContentType string
	Write       func(io.Writer)
}

// ServeDebug binds addr and serves, in the background, GETs of:
//
//	/metrics                WritePrometheus of reg (an empty body when reg is nil)
//	/healthz                "ok"
//	/debug/pprof/           an index of the runtime/pprof profiles
//	/debug/pprof/<name>     that profile, gzipped proto (?debug=N: text)
//	/debug/pprof/profile    a CPU profile over ?seconds=N (default 30)
//	/debug/pprof/trace      an execution trace over ?seconds=N (default 1)
//	/debug/pprof/cmdline    the command line, NUL-separated
//
// plus the host's own routes, exact path to Route (cmd/nucd's /statusz).
// Each connection has 5 s to send its header, gets one reply carrying
// Content-Length, and is closed. The caller owns the returned server and
// should Close it on shutdown; commands typically let process exit tear
// it down.
func ServeDebug(addr string, reg *Registry, routes map[string]Route) (*DebugServer, error) {
	return serveDebug(addr, reg, routes, headerTimeout)
}

func serveDebug(addr string, reg *Registry, routes map[string]Route, timeout time.Duration) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	ds := &DebugServer{Addr: ln.Addr().String(), ln: ln, reg: reg, routes: routes, timeout: timeout}
	go ds.serve()
	return ds, nil
}

// Close shuts the debug server down.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.ln.Close()
}

func (d *DebugServer) serve() {
	for {
		conn, err := d.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil { // e.g. out of file descriptors: back off and retry
			time.Sleep(10 * time.Millisecond)
			continue
		}
		go d.serveConn(conn)
	}
}

// statusText names the status codes the debug server answers with.
var statusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed", 500: "Internal Server Error"}

// serveConn reads one request's header, answers it and closes conn.
func (d *DebugServer) serveConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(d.timeout))
	br := bufio.NewReader(io.LimitReader(conn, 64<<10))
	line, err := br.ReadString('\n')
	h := line
	for err == nil && strings.TrimSpace(h) != "" { // skip the headers up to the blank line
		h, err = br.ReadString('\n')
	}
	if err != nil {
		return // no complete header before the deadline or the size cap
	}
	var body bytes.Buffer
	code, ctype := d.handle(&body, strings.Fields(line))
	allow := ""
	if code == 405 {
		allow = "Allow: GET\r\n"
	}
	fmt.Fprintf(conn, "HTTP/1.1 %d %s\r\n%sContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		code, statusText[code], allow, ctype, body.Len())
	conn.Write(body.Bytes())
	// Half-close and drain what the client still sends (a request body),
	// so the close is a FIN it reads after the reply, not a reset.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
		conn.SetReadDeadline(time.Now().Add(time.Second))
		io.Copy(io.Discard, io.LimitReader(conn, 64<<10))
	}
}

// handle writes the reply body for the request line's fields to w and
// returns its status code and content type.
func (d *DebugServer) handle(w *bytes.Buffer, req []string) (int, string) {
	const text, binary = "text/plain; charset=utf-8", "application/octet-stream"
	if len(req) != 3 {
		return 400, text
	}
	if req[0] != "GET" {
		return 405, text
	}
	path, query, _ := strings.Cut(req[1], "?")
	if r, ok := d.routes[path]; ok {
		r.Write(w)
		return 200, r.ContentType
	}
	name, isPprof := strings.CutPrefix(path, "/debug/pprof/")
	switch {
	case path == "/metrics":
		WritePrometheus(w, d.reg)
		return 200, "text/plain; version=0.0.4; charset=utf-8"
	case path == "/healthz":
		w.WriteString("ok\n")
		return 200, text
	case !isPprof:
		return 404, text
	case name == "":
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%d\t%s\n", p.Count(), p.Name())
		}
		w.WriteString("-\tprofile?seconds=N\n-\ttrace?seconds=N\n-\tcmdline\n")
		return 200, text
	case name == "cmdline":
		w.WriteString(strings.Join(os.Args, "\x00"))
		return 200, text
	case name == "profile":
		if err := pprof.StartCPUProfile(w); err != nil {
			fmt.Fprintln(w, err)
			return 500, text
		}
		time.Sleep(seconds(query, 30))
		pprof.StopCPUProfile()
		return 200, binary
	case name == "trace":
		if err := trace.Start(w); err != nil {
			fmt.Fprintln(w, err)
			return 500, text
		}
		time.Sleep(seconds(query, 1))
		trace.Stop()
		return 200, binary
	}
	p := pprof.Lookup(name)
	if p == nil {
		return 404, text
	}
	debug, _ := strconv.Atoi(param(query, "debug"))
	if err := p.WriteTo(w, debug); err != nil {
		w.Reset()
		fmt.Fprintln(w, err)
		return 500, text
	}
	if debug != 0 {
		return 200, text
	}
	return 200, binary
}

// param returns key's value in a URL query, "" when absent. The debug
// paths' parameters are plain numbers, so nothing is unescaped.
func param(query, key string) string {
	for _, kv := range strings.Split(query, "&") {
		if k, v, _ := strings.Cut(kv, "="); k == key {
			return v
		}
	}
	return ""
}

// seconds reads ?seconds=N as a duration, def seconds when it is absent
// or not positive.
func seconds(query string, def float64) time.Duration {
	s, err := strconv.ParseFloat(param(query, "seconds"), 64)
	if err != nil || !(s > 0) { // NaN too
		s = def
	}
	return time.Duration(s * float64(time.Second))
}
