package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"defectsim/internal/obs"
	"defectsim/internal/serve"
)

// server is the real serving stack on a loopback listener: serve.New
// with dlprojd's flag defaults and an FS result store in storeDir.
type server struct {
	srv      *serve.Server
	hs       *http.Server
	url      string
	storeDir string
	served   chan error
	client   *http.Client
}

func startServer(storeDir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		QueueDepth:      16,
		Workers:         2,
		SimWorkers:      0,
		DefaultDeadline: 2 * time.Minute,
		MaxDeadline:     10 * time.Minute,
		DrainBudget:     10 * time.Second,
		DrainGrace:      5 * time.Second,
		RetryAfter:      time.Second,
		CacheDir:        storeDir,
		MaxJobs:         1024,
		Obs:             obs.New(),
		// dlprojd logs JSON at info level; the benchmark keeps the cost of
		// formatting every line but drops the text.
		Logger: slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	if srv.Store() == nil {
		srv.Drain(context.Background())
		ln.Close()
		return nil, fmt.Errorf("result store in %s did not open", storeDir)
	}
	s := &server{
		srv: srv,
		hs: &http.Server{
			Handler:      srv.Handler(),
			ReadTimeout:  10 * time.Second,
			WriteTimeout: 30 * time.Second,
		},
		url:      "http://" + ln.Addr().String(),
		storeDir: storeDir,
		served:   make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
			// Below the server's idle timeout (its 10 s ReadTimeout), so
			// the client never sends a submission on a connection the
			// server is closing; a POST on one is not retried.
			IdleConnTimeout: 5 * time.Second,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the job layer, shuts the listener down and waits for the
// serving goroutine to return.
func (s *server) stop() error {
	rep := s.srv.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if err == nil && !rep.Clean() {
		err = fmt.Errorf("drain cancelled %d jobs", len(rep.Cancelled))
	}
	return err
}
