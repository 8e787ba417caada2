// Package admin mounts the introspection endpoints every daemon exposes
// when started with an admin address (-admin / -admin-base):
//
//	/metrics       Prometheus text exposition of the default registry
//	/healthz       200 "ok" when all registered checks pass, 503 otherwise
//	/debug/pprof/  the standard net/http/pprof handlers
//	/debug/flight  the flight recorder's current ring as a binary dump
//	               (404 while no recorder is armed; feed to tools/nabtrace)
//
// plus any operator-triggered Actions a daemon registers (POST-only
// endpoints such as a durable daemon's /snapshot).
//
// The server is deliberately tiny: a private mux (so pprof is not mounted
// on http.DefaultServeMux), no TLS, no auth — bind it to loopback.
package admin

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"nab/internal/flight"
	"nab/internal/metrics"
)

// Check is one named health probe. Probe returns nil when healthy; the
// error message is reported verbatim on /healthz.
type Check struct {
	Name  string
	Probe func() error
}

// Action is one operator-triggered endpoint, mounted at its Path and
// accepting POST only. Run returns a one-line summary reported with the
// 200, or an error reported verbatim with a 500.
type Action struct {
	Path string
	Run  func() (string, error)
}

// Options configures Serve.
type Options struct {
	// Registry defaults to metrics.Default().
	Registry *metrics.Registry
	// Checks are evaluated on every /healthz request.
	Checks []Check
	// Actions are mounted at their paths alongside the standard set.
	Actions []Action
}

// Server is a running admin endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server

	checks []Check // fixed at Serve
}

// Serve binds addr (e.g. "127.0.0.1:9090"; port 0 picks a free port) and
// serves the admin mux until Close.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	s := &Server{ln: ln, checks: append([]Check(nil), opts.Checks...)}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", s.healthz)
	for _, a := range opts.Actions {
		run := a.Run
		mux.HandleFunc(a.Path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			out, err := run()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, out)
		})
	}
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		buf := flight.Default().DumpBytes("manual", time.Now().UnixNano())
		if buf == nil {
			http.Error(w, "flight recorder not armed (start the daemon with -flight)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="flight.dump"`)
		w.Write(buf)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	type result struct {
		name string
		err  error
	}
	results := make([]result, len(s.checks))
	healthy := true
	for i, c := range s.checks {
		results[i] = result{c.Name, c.Probe()}
		if results[i].err != nil {
			healthy = false
		}
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].name < results[j].name })

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if len(results) == 0 {
		fmt.Fprintln(w, "ok")
		return
	}
	for _, res := range results {
		if res.err != nil {
			fmt.Fprintf(w, "%s: %v\n", res.name, res.err)
		} else {
			fmt.Fprintf(w, "%s: ok\n", res.name)
		}
	}
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }
