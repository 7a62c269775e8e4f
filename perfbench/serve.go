package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supernpu/internal/core"
	"supernpu/internal/server"
	"supernpu/internal/simcache"
	"supernpu/internal/workload"
)

// roundRequests is the length of the seeded request sequence one
// serve-mixed round sends. Every distinct custom network stays resident in
// the program's caches, so a round starts from empty caches; this size
// keeps one round's live heap under 50 MB.
const roundRequests = 10000

// presetBatches are the batches preset requests ask for (0 = the design's
// maximum on-chip batch).
var presetBatches = []int{0, 1, 4}

// maxWireDim is the service's bound on every dimension of a custom layer;
// the preset CNNs with larger layers cannot be resent as custom networks.
const maxWireDim = 1 << 14

// customBatches are the batches custom networks ask for. They match preset
// batches, so a one-layer mutation of a preset shares its layer results.
var customBatches = []int{1, 4}

// request is one POST /v1/evaluate of the serve-mixed sequence, with the
// inputs a direct core.Evaluate of it takes.
type request struct {
	body   []byte
	design core.Design
	net    workload.Network
	batch  int
	preset bool
}

// presets are the requests for the paper's own workloads: every design on
// every evaluation CNN at every preset batch.
func presets() ([]request, error) {
	var out []request
	for _, d := range core.DesignPoints() {
		for _, n := range workload.All() {
			for _, b := range presetBatches {
				body, err := json.Marshal(server.EvaluateRequest{Design: d.Name(), Workload: n.Name, Batch: b})
				if err != nil {
					return nil, err
				}
				out = append(out, request{body: body, design: d, net: n, batch: b, preset: true})
			}
		}
	}
	return out, nil
}

// genRequests builds the seeded serve-mixed sequence: 80% presets, 10%
// one-layer mutations of a preset CNN the service accepts as a custom
// network (they share most layer shapes with it) and 10% networks of fresh shapes (they miss every cache tier). Every
// custom network is distinct. The same seed gives the same bytes.
func genRequests(seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	pre, err := presets()
	if err != nil {
		return nil, err
	}
	designs := core.DesignPoints()
	var nets []workload.Network
	for _, n := range workload.All() {
		if fitsWire(n) {
			nets = append(nets, n)
		}
	}
	kinds := make([]byte, n)
	for i := range kinds {
		switch {
		case i < n/10:
			kinds[i] = 'm'
		case i < n/5:
			kinds[i] = 'f'
		default:
			kinds[i] = 'p'
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	out := make([]request, n)
	custom := 0
	for i, k := range kinds {
		if k == 'p' {
			out[i] = pre[rng.Intn(len(pre))]
			continue
		}
		var net workload.Network
		if k == 'm' {
			net = mutate(rng, nets[rng.Intn(len(nets))], custom)
		} else {
			net = fresh(rng, custom)
		}
		custom++
		if err := net.Validate(); err != nil {
			return nil, fmt.Errorf("generated network %s: %w", net.Name, err)
		}
		d := designs[rng.Intn(len(designs))]
		b := customBatches[rng.Intn(len(customBatches))]
		body, err := json.Marshal(server.EvaluateRequest{Design: d.Name(), Network: spec(net), Batch: b})
		if err != nil {
			return nil, err
		}
		out[i] = request{body: body, design: d, net: net, batch: b}
	}
	return out, nil
}

func fitsWire(n workload.Network) bool {
	for _, l := range n.Layers {
		for _, d := range []int{l.H, l.W, l.C, l.R, l.S, l.M} {
			if d > maxWireDim {
				return false
			}
		}
	}
	return true
}

// mutate widens one convolution or fully-connected layer of base by a
// filter count derived from the custom network's index, so no two
// mutations agree.
func mutate(rng *rand.Rand, base workload.Network, idx int) workload.Network {
	var candidates []int
	for i, l := range base.Layers {
		if l.Kind == workload.Conv || l.Kind == workload.FullyConnected {
			candidates = append(candidates, i)
		}
	}
	layers := append([]workload.Layer(nil), base.Layers...)
	li := candidates[rng.Intn(len(candidates))]
	layers[li].M += 1 + idx
	return workload.Network{Name: fmt.Sprintf("%s-m%d", base.Name, idx), Layers: layers}
}

// fresh builds a one- to three-layer convolutional network whose filter
// counts are derived from the custom network's index, so its shapes are new. Every
// layer keeps the input's spatial size, as the network's dataflow requires.
func fresh(rng *rand.Rand, idx int) workload.Network {
	sizes := []int{7, 14, 28, 56}
	channels := []int{16, 32, 64, 128, 256}
	kernels := []int{1, 3}
	hw := sizes[rng.Intn(len(sizes))]
	layers := make([]workload.Layer, 1+rng.Intn(3))
	for i := range layers {
		r := kernels[rng.Intn(len(kernels))]
		layers[i] = workload.Layer{
			Name: fmt.Sprintf("conv%d", i), Kind: workload.Conv,
			H: hw, W: hw, C: channels[rng.Intn(len(channels))],
			R: r, S: r, M: 8 + 3*idx + i, Stride: 1, Pad: r / 2,
		}
	}
	return workload.Network{Name: fmt.Sprintf("fresh-%d", idx), Layers: layers}
}

// spec is the wire form of a network. Every field is explicit, so the
// service's defaulting leaves the network exactly as built.
func spec(n workload.Network) *server.NetworkSpec {
	kinds := map[workload.Kind]string{
		workload.Conv: "conv", workload.DepthwiseConv: "dwconv",
		workload.FullyConnected: "fc", workload.Pool: "pool",
	}
	s := &server.NetworkSpec{Name: n.Name}
	for _, l := range n.Layers {
		s.Layers = append(s.Layers, server.LayerSpec{
			Name: l.Name, Kind: kinds[l.Kind],
			H: l.H, W: l.W, C: l.C, R: l.R, S: l.S, M: l.M,
			Stride: l.Stride, Pad: l.Pad,
		})
	}
	return s
}

// expectedBody is the response body of a direct core.Evaluate of r,
// encoded as the service encodes a healthy evaluation.
func expectedBody(ctx context.Context, r request) ([]byte, error) {
	ev, err := core.Evaluate(ctx, r.design, r.net, r.batch)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = json.NewEncoder(&b).Encode(server.EvaluationResponse{
		Design: ev.Design, Network: ev.Network, Batch: ev.Batch,
		FrequencyHz: ev.Frequency, PeakMACs: ev.PeakMACs,
		Throughput: ev.Throughput, TimeS: ev.Time,
		PEUtilization: ev.PEUtilization,
		TotalCycles:   ev.TotalCycles, MACs: ev.MACs,
		PrepFraction: ev.PrepFraction, ChipPowerW: ev.ChipPower,
	})
	return b.Bytes(), err
}

// newService builds the evaluation service as supernpu-serve does, with
// the per-request log discarded.
func newService() http.Handler {
	return server.New(server.Options{Logger: log.New(io.Discard, "", log.LstdFlags)}).Handler()
}

// loopback is a running service on a loopback port and a keep-alive client
// for it.
type loopback struct {
	srv    *httptest.Server
	tr     *http.Transport
	client *http.Client
}

func startLoopback(h http.Handler, conns int) *loopback {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loopback{srv: httptest.NewServer(h), tr: tr, client: &http.Client{Transport: tr}}
}

// close stops the service after its in-flight requests have finished.
func (l *loopback) close() {
	l.tr.CloseIdleConnections()
	l.srv.Close()
}

func (l *loopback) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.srv.URL+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// warm sends every preset once, so preset requests in the measured phase
// read the caches.
func (l *loopback) warm(ctx context.Context, pre []request) error {
	for _, r := range pre {
		status, body, err := l.post(ctx, r.body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d: %s", r.body, status, body)
		}
	}
	return nil
}

// serveRound is one pass of the request sequence through the clients.
type serveRound struct {
	lat    []time.Duration
	status []int
	sums   [][32]byte
	errs   []error
	phase  phase
	heapMB float64
}

// round sends the whole sequence from `clients` closed-loop clients: each
// sends its next request only once the previous reply has been read.
// Client c sends requests c, c+clients, c+2*clients, ...
func (l *loopback) round(ctx context.Context, reqs []request, clients int, tr *tracer) serveRound {
	n := len(reqs)
	r := serveRound{
		lat:    make([]time.Duration, n),
		status: make([]int, n),
		sums:   make([][32]byte, n),
		errs:   make([]error, n),
	}
	var wg sync.WaitGroup
	s := takeSnapshot()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//lint:allow(nakedgo) the load generator must not share the worker pool of the program it measures
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				id := tr.start("request", 0)
				t := time.Now()
				status, body, err := l.post(ctx, reqs[i].body)
				r.lat[i] = time.Since(t)
				tr.end(id)
				r.status[i], r.errs[i], r.sums[i] = status, err, sha256.Sum256(body)
			}
		}(c)
	}
	wg.Wait()
	r.phase = s.since()
	r.heapMB = heapLiveMB()
	return r
}

// serveMixed holds a serve-mixed run's inputs and running service.
type serveMixed struct {
	reqs    []request
	pre     []request
	want    [][32]byte
	clients int
	lb      *loopback
}

// runServeMixed drives /v1/evaluate over loopback with a closed loop of
// one client per CPU.
func runServeMixed(ctx context.Context, cfg config, traced bool) (*result, error) {
	s := &serveMixed{clients: runtime.NumCPU()}
	if err := s.expect(ctx, cfg.seed); err != nil {
		return nil, err
	}
	setupS, err := timeSetup(func() error { return s.setup(ctx, cfg.seed) })
	if err != nil {
		return nil, err
	}
	defer s.lb.close()
	if !traced {
		lat, p, heaps, failed := s.measure(ctx, cfg, cfg.seconds, nil)
		return &result{
			Correct:   failed == 0,
			Attempted: len(lat),
			Failed:    failed,
			Metrics:   endToEnd(lat, p, median(heaps), setupS, len(lat), failed),
		}, nil
	}

	plain, _, _, failed := s.measure(ctx, cfg, cfg.seconds/2, nil)
	tr := newTracer()
	w := startTracedPhase()
	lat, p, _, failed2 := s.measure(ctx, cfg, cfg.seconds/2, tr)
	tp := w.finish(len(lat), p, median(ms(plain)), median(ms(lat)))
	return layerResult(ctx, cfg, tr, tp, len(plain)+len(lat), failed+failed2)
}

// expect computes the digest of every request's expected body from direct
// core.Evaluate calls on empty caches, before the service has run.
func (s *serveMixed) expect(ctx context.Context, seed int64) error {
	reqs, err := genRequests(seed, roundRequests)
	if err != nil {
		return err
	}
	simcache.ClearAll()
	defer simcache.ClearAll()
	s.want = make([][32]byte, len(reqs))
	for i, r := range reqs {
		body, err := expectedBody(ctx, r)
		if err != nil {
			return err
		}
		s.want[i] = sha256.Sum256(body)
	}
	return nil
}

// setup is one set-up repetition: generate the inputs, start the service
// on empty caches and warm the presets through it.
func (s *serveMixed) setup(ctx context.Context, seed int64) error {
	if s.lb != nil {
		s.lb.close()
	}
	var err error
	if s.reqs, err = genRequests(seed, roundRequests); err != nil {
		return err
	}
	if s.pre, err = presets(); err != nil {
		return err
	}
	simcache.ClearAll()
	s.lb = startLoopback(newService(), s.clients)
	return s.lb.warm(ctx, s.pre)
}

// measure sends rounds of the sequence until d has passed (at least one
// round). Before each round after the first, the caches are emptied and the
// presets warmed again, outside the measured time.
func (s *serveMixed) measure(ctx context.Context, cfg config, d time.Duration, tr *tracer) (lat []time.Duration, total phase, heaps []float64, failed int) {
	for round := 0; round == 0 || total.wall < d; round++ {
		if round > 0 {
			simcache.ClearAll()
			if err := s.lb.warm(ctx, s.pre); err != nil {
				fmt.Fprintln(cfg.log, "re-warming presets:", err)
				failed++
			}
		}
		runtime.GC()
		r := s.lb.round(ctx, s.reqs, s.clients, tr)
		lat = append(lat, r.lat...)
		total.add(r.phase)
		heaps = append(heaps, r.heapMB)
		for i := range s.reqs {
			switch {
			case r.errs[i] != nil:
				failed++
				fmt.Fprintf(cfg.log, "request %d: %v\n", i, r.errs[i])
			case r.status[i] != http.StatusOK:
				failed++
				fmt.Fprintf(cfg.log, "request %d: status %d\n", i, r.status[i])
			case r.sums[i] != s.want[i]:
				failed++
				fmt.Fprintf(cfg.log, "request %d: body differs from a direct core.Evaluate\n", i)
			}
		}
	}
	return lat, total, heaps, failed
}

// probeServing times the serving stack on the request sequence: direct
// core.Evaluate calls from cold and warm caches, the service's handler into
// a recorder, and round trips over loopback with the handler timed inside.
func probeServing(ctx context.Context, reqs []request, tr *tracer, parent int, m map[string]metric, c *checks) error {
	pre, err := presets()
	if err != nil {
		return err
	}
	simcache.ClearAll()
	for _, r := range pre {
		if _, err := core.Evaluate(ctx, r.design, r.net, r.batch); err != nil {
			return err
		}
	}

	n := len(reqs)
	want := make([][32]byte, n)
	var hit, miss []float64
	id := tr.start("core.evaluate_cold", parent)
	for i, r := range reqs {
		t := time.Now()
		body, err := expectedBody(ctx, r)
		d := float64(time.Since(t))
		if err != nil {
			return err
		}
		want[i] = sha256.Sum256(body)
		if r.preset {
			hit = append(hit, d/1e3)
		} else {
			miss = append(miss, d/1e6)
		}
	}
	tr.end(id)

	eval := make([]time.Duration, n)
	tr.timed("core.evaluate_warm", parent, func() {
		for i, r := range reqs {
			t := time.Now()
			_, err = core.Evaluate(ctx, r.design, r.net, r.batch)
			eval[i] = time.Since(t)
		}
	})
	if err != nil {
		return err
	}

	h := newService()
	handler := make([]time.Duration, n)
	codec := make([]float64, n)
	tr.timed("server.handler", parent, func() {
		for i, r := range reqs {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(r.body))
			t := time.Now()
			h.ServeHTTP(rec, req)
			handler[i] = time.Since(t)
			codec[i] = float64(handler[i]-eval[i]) / 1e3
			c.check(rec.Code == http.StatusOK && sha256.Sum256(rec.Body.Bytes()) == want[i],
				"handler reply %d: status %d or body differs from a direct core.Evaluate", i, rec.Code)
		}
	})

	// The wrapper times the handler inside each round trip; the client is
	// serial, so the last recorded time belongs to the reply just read.
	var inner atomic.Int64
	lb := startLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		inner.Store(int64(time.Since(t)))
	}), 1)
	defer lb.close()
	rtt := make([]time.Duration, n)
	transport := make([]float64, n)
	id = tr.start("server.roundtrip", parent)
	for i, r := range reqs {
		t := time.Now()
		status, body, err := lb.post(ctx, r.body)
		rtt[i] = time.Since(t)
		if err != nil {
			return err
		}
		in := time.Duration(inner.Load())
		transport[i] = float64(rtt[i]-in) / 1e3
		c.check(status == http.StatusOK && sha256.Sum256(body) == want[i],
			"round trip %d: status %d or body differs from a direct core.Evaluate", i, status)
		c.check(in <= rtt[i], "round trip %d: handler took %v of a %v round trip", i, in, rtt[i])
	}
	tr.end(id)

	m["core.evaluate_hit_us_p50"] = metric{median(hit), "us"}
	m["core.evaluate_miss_ms_p50"] = metric{quantile(miss, 0.50), "ms"}
	m["core.evaluate_miss_ms_p99"] = metric{quantile(miss, 0.99), "ms"}
	hms, rms := ms(handler), ms(rtt)
	m["server.handler_ms_p50"] = metric{quantile(hms, 0.50), "ms"}
	m["server.handler_ms_p99"] = metric{quantile(hms, 0.99), "ms"}
	m["server.roundtrip_ms_p50"] = metric{quantile(rms, 0.50), "ms"}
	m["server.roundtrip_ms_p99"] = metric{quantile(rms, 0.99), "ms"}
	m["server.codec_us_p50"] = metric{median(codec), "us"}
	m["server.transport_us_p50"] = metric{median(transport), "us"}
	return nil
}
