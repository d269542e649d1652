package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the runtime telemetry endpoint every host's -debug-addr
// starts (cmd/experiments, cmd/nucd): one private mux,
// nothing leaks onto http.DefaultServeMux.
type DebugServer struct {
	Addr string // the bound address, useful when the flag asked for :0
	srv  *http.Server
}

// ServeDebug binds addr and serves, in the background:
//
//	/debug/pprof/...   the standard pprof index, profiles and traces
//	/metrics           WritePrometheus of reg (an empty body when reg is nil)
//	/healthz           "ok"
//
// plus the host's own routes, pattern to handler (cmd/nucd's /statusz).
// The caller owns the returned server and should Close it on shutdown;
// commands typically let process exit tear it down.
func ServeDebug(addr string, reg *Registry, routes map[string]http.HandlerFunc) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, reg)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	for pattern, h := range routes {
		mux.HandleFunc(pattern, h)
	}
	ds := &DebugServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go ds.srv.Serve(ln)
	return ds, nil
}

// Close shuts the debug server down.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
