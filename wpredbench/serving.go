package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"wpred/internal/router"
	"wpred/internal/serve"
)

// fleet is the system under test: one wpredd, or wpredrouter in front of
// wpredd backends, all in this process on loopback.
type fleet struct {
	backends []*serve.Server
	rt       *http.Server
	rtDone   chan struct{}
	rtTr     *http.Transport
	base     string
}

func serveKeys(keys []key) []serve.Key {
	out := make([]serve.Key, len(keys))
	for i, k := range keys {
		out[i] = serve.Key{Selection: k.Selection, Metric: k.Metric, Model: k.Model}
	}
	return out
}

// startBackend is one wpredd start: generate the references, build the
// server, listen, and warm the given keys (the wpredd default key when
// none are given).
func startBackend(registryCap int, keys []key) (*serve.Server, string, error) {
	srv := serve.New(serve.Config{Refs: references(), Seed: serverSeed, RegistryCap: registryCap})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	if err := srv.Warmup(serveKeys(keys)...); err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, "", err
	}
	return srv, addr, nil
}

// startFleet brings the workload's servers up and waits until the front
// door answers /readyz with 200. Its duration is one set-up.
func startFleet(seq *sequence) (*fleet, error) {
	f := &fleet{}
	if seq.rate == 0 {
		srv, addr, err := startBackend(seq.registryCap, seq.keys)
		if err != nil {
			return nil, err
		}
		f.backends, f.base = []*serve.Server{srv}, "http://"+addr
	} else {
		// The router hashes backend names onto its ring. Fixed names keep
		// the key → backend assignment the same on every run; the
		// transport maps each name to its loopback port.
		names := map[string]string{}
		var urls []string
		for i := 0; i < fleetBackends; i++ {
			srv, addr, err := startBackend(0, nil)
			if err != nil {
				f.stop()
				return nil, err
			}
			f.backends = append(f.backends, srv)
			name := fmt.Sprintf("wpredd-%d:80", i)
			names[name] = addr
			urls = append(urls, "http://"+name)
		}
		var d net.Dialer
		f.rtTr = &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				if real, ok := names[addr]; ok {
					addr = real
				}
				return d.DialContext(ctx, network, addr)
			},
			MaxIdleConnsPerHost: 8,
		}
		rt, err := router.New(router.Config{Backends: urls, Seed: serverSeed, Transport: f.rtTr})
		if err != nil {
			f.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.rt, f.rtDone = &http.Server{Handler: rt.Handler()}, make(chan struct{})
		go func() {
			defer close(f.rtDone)
			_ = f.rt.Serve(ln)
		}()
		f.base = "http://" + ln.Addr().String()
	}
	if err := waitReady(f.base); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func waitReady(base string) error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", base)
}

// stop shuts the router and every backend down and waits for them.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if f.rt != nil {
		_ = f.rt.Shutdown(ctx)
		<-f.rtDone
	}
	if f.rtTr != nil {
		f.rtTr.CloseIdleConnections()
	}
	for _, b := range f.backends {
		_ = b.Shutdown(ctx)
	}
}

func (f *fleet) registry() serve.RegistryStats {
	var sum serve.RegistryStats
	for _, b := range f.backends {
		st := b.RegistryStats()
		sum.Fits += st.Fits
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
	}
	return sum
}

// referenceBodies answers every pooled request once, serially, on a
// separate server whose registry holds every key. Under the serving
// determinism contract each timed response must equal these bytes. A
// request the reference server does not answer with 200 has no reference,
// so every timed answer to it counts as failed.
func referenceBodies(seq *sequence) [][]byte {
	srv := serve.New(serve.Config{Refs: references(), Seed: serverSeed, RegistryCap: len(seq.keys)})
	h := srv.Handler()
	out := make([][]byte, len(seq.pool))
	for i, r := range seq.pool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		if rec.Code == http.StatusOK {
			out[i] = rec.Body.Bytes()
		}
	}
	return out
}

// outcome is one request as the client saw it.
type outcome struct {
	idx int
	// lat runs from the intended send time (open loop) or the send time
	// (closed loop) to the last response byte; lag is how late the send
	// was against its intended time.
	lat, lag time.Duration
	status   int
	ok       bool // 200 and byte-identical to the reference
	wrong    bool // 200 with a different body
}

// newClient opens at most conns connections to the front door.
func newClient(conns int) *http.Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// send posts one request and checks the answer against its reference.
func send(c *http.Client, base string, r *request, ref []byte) outcome {
	var o outcome
	resp, err := c.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return o
	}
	o.status = resp.StatusCode
	if o.status == http.StatusOK {
		o.ok = ref != nil && bytes.Equal(body, ref)
		o.wrong = !o.ok
	}
	return o
}

// phase is the result of driving load for a while.
type phase struct {
	outs    []outcome
	elapsed time.Duration
	unsent  int
	next    int // the sequence position after the last one used
}

// drive sends the sequence from position from on conns connections for
// dur. In a closed loop each connection sends its next request when the
// previous one completes. In an open loop (rate > 0) position i is due at
// (i-from)/rate after the start, whether or not earlier requests are done;
// a connection that is free takes the next due request, and latency counts
// from when it was due.
func drive(cl *http.Client, base string, seq *sequence, refs [][]byte, conns int, rate float64, dur time.Duration, from int) phase {
	var pos atomic.Int64
	pos.Store(int64(from))
	last := int64(-1)
	if rate > 0 {
		last = int64(from) + int64(rate*dur.Seconds())
	}
	t0 := time.Now()
	stopAt := t0.Add(dur)
	// An open-loop run may overrun its schedule while a backlog drains;
	// past this grace it stops sending and counts the rest as unsent.
	giveUp := stopAt.Add(60 * time.Second)
	outs := make([][]outcome, conns)
	ends := make([]time.Time, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(pos.Add(1) - 1)
				now := time.Now()
				due := now
				if rate > 0 {
					if int64(i) >= last || now.After(giveUp) {
						return
					}
					due = t0.Add(time.Duration(float64(i-from) / rate * float64(time.Second)))
					if d := due.Sub(now); d > 0 {
						time.Sleep(d)
					}
				} else if !now.Before(stopAt) {
					return
				}
				sent := time.Now()
				idx := seq.at(i)
				o := send(cl, base, &seq.pool[idx], refs[idx])
				ends[w] = time.Now()
				o.idx, o.lat, o.lag = idx, ends[w].Sub(due), sent.Sub(due)
				outs[w] = append(outs[w], o)
			}
		}(w)
	}
	wg.Wait()
	p := phase{next: int(pos.Load()) - conns}
	for w := range outs {
		p.outs = append(p.outs, outs[w]...)
		if d := ends[w].Sub(t0); d > p.elapsed {
			p.elapsed = d
		}
	}
	if rate > 0 {
		p.next = int(last)
		p.unsent = int(last) - from - len(p.outs)
	}
	return p
}
