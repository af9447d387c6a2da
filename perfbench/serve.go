package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bsc-repro/ompss/internal/bench"
	"github.com/bsc-repro/ompss/internal/serve"
)

// serveKey is one distinct experiment request: a quick grid point,
// optionally with a scheduler override on the cluster figures.
type serveKey struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	GridPoint  string `json:"grid_point"`
	Scheduler  string `json:"scheduler,omitempty"`
}

func (k serveKey) body() []byte {
	b, _ := json.Marshal(k) // a struct of strings and a bool always encodes
	return b
}

func cross(parts ...[]string) []string {
	out := []string{""}
	for _, p := range parts {
		var next []string
		for _, pre := range out {
			for _, s := range p {
				next = append(next, strings.TrimSpace(pre+" "+s))
			}
		}
		out = next
	}
	return out
}

// serveUniverse lists every request serve-mix can draw: the quick grid
// points of fig5-fig13 and heat, with the cluster figures also requested
// under the bf and affinity scheduler overrides. The popularity order is
// a fixed shuffle, so every seed draws from the same distribution.
func serveUniverse() []serveKey {
	gpus := []string{"1gpu", "2gpu", "4gpu"}
	nodes := []string{"1node", "2node", "4node", "8node"}
	caches := []string{"nocache", "wt", "wb"}
	versions := []string{"ompss", "mpi+cuda"}
	flush := []string{"flush", "noflush"}
	points := map[string][]string{
		"fig5":  cross(gpus, caches, []string{"bf", "default", "affinity"}),
		"fig6":  cross(gpus, caches, []string{"bf", "default", "affinity"}),
		"fig7":  cross(gpus, flush, caches),
		"fig8":  cross(gpus, caches),
		"fig9":  cross(nodes, []string{"MtoS", "StoS"}, []string{"seq", "smp", "gpu"}, []string{"presend0", "presend1", "presend2"}),
		"fig10": cross(nodes, versions),
		"fig11": cross(nodes, versions),
		"fig12": cross(nodes, flush, versions),
		"fig13": cross(nodes, versions),
		"heat":  cross(nodes, []string{"ompss"}),
	}
	var keys []serveKey
	for _, exp := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "heat"} {
		scheds := []string{""}
		if exp >= "fig9" || exp == "heat" {
			scheds = []string{"", "bf", "affinity"}
		}
		for _, p := range points[exp] {
			for _, s := range scheds {
				keys = append(keys, serveKey{Experiment: exp, Quick: true, GridPoint: p, Scheduler: s})
			}
		}
	}
	rand.New(rand.NewSource(20120521)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// A round requests serveKeys distinct grid points (the head of the fixed
// popularity order) and serveRequests requests in all: a Zipf(serveZipfS)
// draw over those keys, plus one copy of each key inserted at a seeded
// position so that every key appears in every round. A key's first
// occurrence in the round is its miss, which runs the simulator; the
// later ones are cache hits. Every seed therefore misses the same set of
// keys, in a different order and with different repeats.
const (
	serveKeys  = 64
	serveZipfS = 1.1
)

// popular is the head of the popularity order that rounds draw from.
var popular = serveUniverse()[:serveKeys]

// roundSeed is the stream seed of round i of a run at seed: rounds send
// different orders of the same work, so a run's medians average over
// orders instead of resting on one.
func roundSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// serveStream draws the seeded request sequence of one round.
func serveStream(seed int64, n int) []serveKey {
	u := popular[:min(len(popular), n)]
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, serveZipfS, 1, uint64(len(u)-1))
	out := make([]serveKey, 0, n)
	for len(out) < n-len(u) {
		out = append(out, u[z.Uint64()])
	}
	for _, k := range u {
		i := rng.Intn(len(out) + 1)
		out = append(out, serveKey{})
		copy(out[i+1:], out[i:])
		out[i] = k
	}
	return out
}

// sample is one request as the client saw it.
type sample struct {
	key   int // index into the round's stream
	lat   time.Duration
	state string // X-Ompss-Cache: hit, miss or coalesced
	code  int
	body  []byte
}

// round is one closed-loop pass of the request stream against a fresh
// server, so every round starts with a cold cache.
type round struct {
	wall    time.Duration
	speed   float64 // reference-speed factor of the round's host times
	samples []sample
	stats   serve.CacheStats
	conns   int64 // connections the clients opened
}

// bootServer starts an in-process server on loopback and waits until
// /healthz answers 200; the returned duration is that set-up time.
func bootServer() (*serve.Server, time.Duration, error) {
	t0 := time.Now()
	s := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		return nil, 0, fmt.Errorf("serve start: %w", err)
	}
	c := &http.Client{Timeout: 5 * time.Second}
	for tries := 0; ; tries++ {
		resp, err := c.Get(s.URL() + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if tries == 100 {
			stopServer(s)
			return nil, 0, fmt.Errorf("serve: /healthz not ready after %d tries (last error %v)", tries, err)
		}
		time.Sleep(time.Millisecond)
	}
	d := time.Since(t0)
	c.CloseIdleConnections()
	return s, d, nil
}

func bootAndStop() (time.Duration, error) {
	s, d, err := bootServer()
	if err == nil {
		stopServer(s)
	}
	return d, err
}

func stopServer(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Shutdown(ctx) // drain errors only mean a slow job; the round is over
}

func requestBodies(stream []serveKey) [][]byte {
	bodies := make([][]byte, len(stream))
	for i, k := range stream {
		bodies[i] = k.body()
	}
	return bodies
}

// runRound sends the request bodies through nproc closed-loop clients,
// one connection each (a client waits for its reply before sending
// again), to a fresh server.
func runRound(bodies [][]byte) (round, error) {
	s, _, err := bootServer()
	if err != nil {
		return round{}, err
	}
	defer stopServer(s)
	r := round{samples: make([]sample, len(bodies))}
	url := s.URL() + "/v1/experiments"
	var conns atomic.Int64
	var dialer net.Dialer
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		conns.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DialContext: dial}
		client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(bodies) {
					return
				}
				r.samples[i] = post(client, url, i, bodies[i])
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(t0)
	r.stats = s.Stats()
	r.conns = conns.Load()
	return r, nil
}

func post(c *http.Client, url string, i int, body []byte) sample {
	t0 := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{key: i, lat: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	smp := sample{key: i, lat: time.Since(t0), state: resp.Header.Get("X-Ompss-Cache"), code: resp.StatusCode, body: b}
	if err != nil {
		smp.code = 0
	}
	return smp
}

// runServeMix measures the serve-mix workload: repeated cold-cache rounds
// of the same seeded stream until the time budget has passed. A speed
// bracket around each round and its set-up boots puts the end-to-end host
// times at reference speed (speed.go); per-layer times stay in wall time.
func runServeMix(o options) (*result, error) {
	res := &result{}
	budget := secondsDur(o.seconds)
	if o.trace {
		budget /= 2
	}
	var rounds []round
	var streams [][]serveKey
	var setups, rss, rps, rawRPS, speed []float64
	var before, afterMS runtime.MemStats
	var allocs uint64 // during the rounds only: not the request generation, not the set-up boots
	var conns int64
	d := after(budget)
	for len(rounds) < 3 || !d.passed() {
		stream := serveStream(roundSeed(o.seed, len(rounds)), o.scale.serveRequests)
		bodies := requestBodies(stream)
		br := openBracket()
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&before)
		r, err := runRound(bodies)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&afterMS)
		allocs += afterMS.TotalAlloc - before.TotalAlloc
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		conns = max(conns, r.conns)
		boots := timeSetups(bootAndStop, 2*setupsPerRep, res)
		r.speed = br.close()
		rps = append(rps, float64(len(r.samples))/(r.wall.Seconds()*r.speed))
		rawRPS = append(rawRPS, float64(len(r.samples))/r.wall.Seconds())
		speed = append(speed, r.speed)
		setups = append(setups, scaled(boots, r.speed)...)
		rounds = append(rounds, r)
		streams = append(streams, stream)
	}

	var all, allRef, miss []float64
	var hits, coalesced, rejected int64
	for ri, r := range rounds {
		stream := streams[ri]
		coalesced += r.stats.Coalesced
		rejected += r.stats.RejectedOverload
		first := map[string][]byte{} // request body -> the first 200 response body
		for _, smp := range r.samples {
			all = append(all, float64(smp.lat)/1e6)
			allRef = append(allRef, float64(smp.lat)/1e6*r.speed)
			key := string(stream[smp.key].body())
			var err error
			if smp.code != http.StatusOK {
				err = fmt.Errorf("%s: status %d", key, smp.code)
			} else {
				if prev, seen := first[key]; seen && !bytes.Equal(prev, smp.body) {
					err = fmt.Errorf("%s: %s body differs from the first response for the same key", key, smp.state)
				} else if !seen {
					first[key] = smp.body
				}
			}
			res.check(err)
			switch smp.state {
			case "hit":
				hits++
			case "miss":
				miss = append(miss, float64(smp.lat)/1e6)
			}
		}
	}
	n := float64(len(all))
	fmt.Fprintf(o.stdout, "run serve-mix rounds=%d clients=%d max_conns=%d keys=%d latency_samples=%d miss_samples=%d hits=%d coalesced=%d rejected=%d wall_req_per_s_median=%.6g speed_factor_median=%.4g\n",
		len(rounds), runtime.NumCPU(), conns, distinct(streams[0]), len(all), len(miss), hits, coalesced, rejected, median(rawRPS), median(speed))

	if !o.trace {
		res.add("setup_s", median(setups), "s")
		res.add("host_ops_per_s", median(rps), "1/s")
		res.add("latency_p50_ms", quantile(allRef, 0.5), "ms")
		res.add("alloc_bytes_per_op", float64(allocs)/n, "B")
		res.add("max_rss_mb", median(rss), "MB")
		return res, nil
	}
	res.add("serve.latency_p99_ms", quantile(all, 0.99), "ms")
	res.add("serve.miss_latency_p50_ms", quantile(miss, 0.5), "ms")
	res.add("serve.hit_rate", float64(hits)/n, "ratio")
	res.add("serve.coalesced", float64(coalesced), "count")
	res.add("serve.rejected", float64(rejected), "count")
	sp := &spanLog{}
	if err := serveLayers(o, streams[0], res, sp); err != nil {
		return nil, err
	}
	fillLayerZeros(res)
	return res, sp.write(o)
}

func distinct(stream []serveKey) int {
	seen := map[serveKey]bool{}
	for _, k := range stream {
		seen[k] = true
	}
	return len(seen)
}

// serveLayers times the serve and bench layers directly: the warm-hit
// handler in-process (no socket), request parsing plus hashing, and
// bench.Execute on the round's miss configurations.
func serveLayers(o options, stream []serveKey, res *result, sp *spanLog) error {
	s, _, err := bootServer()
	if err != nil {
		return err
	}
	defer stopServer(s)
	h := s.Handler()
	body := stream[0].body()
	call := func() (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/experiments", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("X-Ompss-Cache")
	}
	if code, _ := call(); code != http.StatusOK { // the miss that fills the cache
		return fmt.Errorf("serve layer probe: status %d for %s", code, body)
	}
	var hitUS []float64
	end := sp.begin("serve", "handler warm hits")
	d := after(secondsDur(o.seconds) / 8)
	for len(hitUS) < 200 || !d.passed() {
		t0 := time.Now()
		code, state := call()
		hitUS = append(hitUS, float64(time.Since(t0))/1e3)
		if !res.check(expectHit(code, state)) {
			break
		}
	}
	end()
	res.add("serve.handler_hit_us_p50", median(hitUS), "us")

	var parseUS []float64
	end = sp.begin("serve", "parse and hash")
	d = after(secondsDur(o.seconds) / 16)
	for len(parseUS) < 50 || !d.passed() {
		const batch = 100
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			req, err := serve.ParseRequest(bytes.NewReader(stream[i%len(stream)].body()))
			if err != nil {
				return fmt.Errorf("parse %s: %w", stream[i%len(stream)].body(), err)
			}
			_ = req.Hash()
		}
		parseUS = append(parseUS, float64(time.Since(t0))/1e3/batch)
	}
	end()
	res.add("serve.parse_hash_us", median(parseUS), "us")

	var execMS []float64
	seen := map[serveKey]bool{}
	d = after(secondsDur(o.seconds) / 6)
	for _, k := range stream {
		if seen[k] {
			continue
		}
		seen[k] = true
		req, err := serve.ParseRequest(bytes.NewReader(k.body()))
		if err != nil {
			return fmt.Errorf("parse %s: %w", k.body(), err)
		}
		end := sp.begin("bench", "execute "+string(k.body()))
		t0 := time.Now()
		_, err = bench.Execute(req.Experiment, req.Options())
		execMS = append(execMS, float64(time.Since(t0))/1e6)
		end()
		if !res.check(wrap(string(k.body()), err)) || (len(execMS) >= 5 && d.passed()) {
			break
		}
	}
	res.add("bench.execute_ms_p50", median(execMS), "ms")
	return nil
}

func expectHit(code int, state string) error {
	if code != http.StatusOK || state != "hit" {
		return errors.New("serve layer probe: warm request was not a 200 cache hit")
	}
	return nil
}
