package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// serveNull is the null daemon: it answers every request with a fixed
// body (a real hit response captured from capmand), so the same client
// against it measures the client's and the loopback's own cost.
func serveNull(addr, bodyFile string, stdout io.Writer) error {
	body, err := os.ReadFile(bodyFile)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})}
	fmt.Fprintf(stdout, "null daemon listening on %s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	<-errc
	return nil
}
