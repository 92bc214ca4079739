package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"earlybird/internal/serve"
)

// server is what serve.Server and http.Server have in common: serving
// on a listener until Shutdown.
type server interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// service is one in-process server on a loopback listener.
type service struct {
	srv  server
	url  string
	done chan error
}

// start serves srv on a fresh loopback port.
func start(srv server) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// handlerServer wraps a bare handler in an http.Server.
func handlerServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
}

// stop shuts the server down and waits for its Serve goroutine.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// newClient returns a keep-alive client: the closed-loop load client reuses
// one connection, and a fleet's concurrent shard requests a few.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
}

// reply is one HTTP answer, read in full.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// post sends body as JSON and reads the whole answer; tag, when set,
// adds headers to the request.
func post(c *http.Client, url string, body []byte, tag func(http.Header)) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tag != nil {
		tag(req.Header)
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("reading %s: %w", url, err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// client is the closed-loop load client. With a tracer it
// records each exchange as a serve.http span of the current request and
// tells the server which span it belongs to.
type client struct {
	hc *http.Client
	tr *tracer
}

func (c *client) post(url string, body []byte) (reply, error) {
	if c.tr == nil {
		return post(c.hc, url, body, nil)
	}
	req, root := c.tr.current()
	id := c.tr.begin("serve.http", req, root)
	defer c.tr.end(id)
	return post(c.hc, url, body, func(h http.Header) { setSpanHeader(h, req, id) })
}

// env is the backend a workload's servers run on: the real program
// (untraced), the real program with its fleet seams timed, or — with a
// tracer — the traced replay of the handlers' public calls.
type env struct {
	tr    *tracer
	timed bool
}

// attach serves srv on loopback with a client bound to it.
func (e *env) attach(srv server) (*studyServer, error) {
	svc, err := start(srv)
	if err != nil {
		return nil, err
	}
	return &studyServer{svc: svc, client: &client{hc: newClient(), tr: e.tr}}, nil
}

// studyServer starts a single-node study service.
func (e *env) studyServer(workers int) (*studyServer, error) {
	if e.tr != nil {
		return e.attach(handlerServer(newStudyReplay(e.tr, workers)))
	}
	return e.attach(serve.New(serve.Options{Workers: workers}))
}

// worker returns one fleet worker; t, when set, times its shards.
func (e *env) worker(t *cellTimer) server {
	switch {
	case e.tr != nil:
		return handlerServer(newShardReplay(e.tr, fleetWorkerSlots))
	case t != nil:
		return handlerServer(t.wrapWorker(serve.New(serve.Options{Workers: fleetWorkerSlots}).Handler()))
	}
	return serve.New(serve.Options{Workers: fleetWorkerSlots})
}
