package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"time"

	"hybridpart"
	"hybridpart/internal/apps"
	"hybridpart/internal/platform"
	"hybridpart/internal/server"
	"hybridpart/internal/sim"
)

// instance is one set-up workload. op runs its next closed-loop op and
// returns the latency of the call under test; tr (nil when untraced)
// receives one span per public call the op makes, under the op's span
// parent.
type instance interface {
	op(tr *tracer, parent int) (time.Duration, error)
	// simCycles is the sum of simulated makespans over the workload's fixed
	// reference request set, computed and checked during setup.
	simCycles() int64
	close()
}

type workload struct {
	name  string
	setup func(seed uint64) (instance, error)
}

var workloads = []workload{
	{"ofdm-sim", setupOFDMSim},
	{"jpeg-source", setupJPEGSource},
	{"ofdm-service", setupOFDMService},
}

// Seed streams: each kind of generated input draws from its own stream of
// the workload seed, so adding draws of one kind never shifts another.
const (
	streamVerifyBits = iota + 1
	streamVerifyImage
	streamJPEGImage
	streamZipf
	streamProbe
)

// subSeed derives a non-zero 32-bit input seed from the workload seed, a
// stream and an index (splitmix64 finalizer).
func subSeed(seed uint64, stream, i int) uint32 {
	z := seed*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if s := uint32(z); s != 0 {
		return s
	}
	return 1
}

// verifyApps is the setup correctness gate shared by every workload: the
// interpreter's OFDM and JPEG outputs on inputs drawn from the workload seed
// must equal the independent Go encoders bit for bit.
func verifyApps(seed uint64) error {
	bits := hybridpart.OFDMBits(subSeed(seed, streamVerifyBits, 0))
	ow, err := hybridpart.NewWorkload(apps.OFDMSource(), hybridpart.OFDMEntryFunc)
	if err != nil {
		return err
	}
	if err := ow.SetInput(hybridpart.OFDMBitsArray, bits); err != nil {
		return err
	}
	if _, err := ow.Run(); err != nil {
		return err
	}
	if err := checkOFDM(ow.Data(hybridpart.OFDMOutIArray), ow.Data(hybridpart.OFDMOutQArray), bits); err != nil {
		return err
	}

	img := hybridpart.JPEGImage(subSeed(seed, streamVerifyImage, 0))
	src, err := apps.JPEGSource()
	if err != nil {
		return err
	}
	jw, err := hybridpart.NewWorkload(src, hybridpart.JPEGEntryFunc)
	if err != nil {
		return err
	}
	if err := jw.SetInput(hybridpart.JPEGImageArray, img); err != nil {
		return err
	}
	if _, err := jw.Run(); err != nil {
		return err
	}
	return checkJPEG(jw.Data(hybridpart.JPEGStream), jw.Data(hybridpart.JPEGBitsArray)[0], img)
}

func checkOFDM(gotI, gotQ, bits []int32) error {
	wantI, wantQ, err := apps.OFDMReference(bits)
	if err != nil {
		return err
	}
	if !slices.Equal(gotI, wantI) || !slices.Equal(gotQ, wantQ) {
		return fmt.Errorf("OFDM interpreter output differs from OFDMReference")
	}
	return nil
}

func checkJPEG(gotStream []int32, gotBits int32, img []int32) error {
	want, nbits, err := apps.JPEGReference(img)
	if err != nil {
		return err
	}
	if gotBits != nbits || !slices.Equal(gotStream, want) {
		return fmt.Errorf("JPEG interpreter output differs from JPEGReference (%d vs %d bits)", gotBits, nbits)
	}
	return nil
}

// ofdmProfileSeed is the OFDM payload seed of the paper's evaluation; the
// pinned design-point cycles below are for its profile.
const ofdmProfileSeed = 1

// designPoint is one of the four ofdm-sim engine configurations, each
// steering a different scoring tier, with its pinned simulated makespan.
type designPoint struct {
	name     string
	area     int
	frames   int
	regions  int
	prefetch bool
	cycles   int64
}

var designPoints = []designPoint{
	{name: "a1500x1", area: 1500, frames: 1, cycles: 29639},                    // closed form + incremental
	{name: "a1500x8", area: 1500, frames: 8, cycles: 236888},                   // replay, bounds, pruning
	{name: "a1200x8r2", area: 1200, frames: 8, regions: 2, cycles: 172072},     // region sequencer
	{name: "a1200x8pf", area: 1200, frames: 8, prefetch: true, cycles: 249368}, // prefetch oracle
}

func (d designPoint) options() []hybridpart.Option {
	o := []hybridpart.Option{
		hybridpart.WithArea(d.area),
		hybridpart.WithObjective(hybridpart.ObjectiveSimulated),
		hybridpart.WithSimFrames(d.frames),
	}
	if d.regions > 0 {
		o = append(o, hybridpart.WithRegions(d.regions))
	}
	if d.prefetch {
		o = append(o, hybridpart.WithSimPrefetch(true))
	}
	return o
}

// platform and simConfig are the same configuration as options, spelled
// for the internal layers the traced pass calls directly.
func (d designPoint) platform() platform.Platform {
	p := platform.Default()
	p.Fine.Area = d.area
	p.Fine.Regions = d.regions
	return p
}

func (d designPoint) simConfig() sim.Config {
	return sim.Config{Frames: d.frames, Prefetch: d.prefetch}
}

// ofdmSim: one op is Engine.Partition over all four design points.
type ofdmSim struct {
	w       *hybridpart.Workload
	engines []*hybridpart.Engine
	ref     int64
}

func setupOFDMSim(seed uint64) (instance, error) {
	if err := verifyApps(seed); err != nil {
		return nil, err
	}
	w, err := hybridpart.BenchmarkWorkload(hybridpart.BenchOFDM, ofdmProfileSeed)
	if err != nil {
		return nil, err
	}
	s := &ofdmSim{w: w}
	for _, d := range designPoints {
		e, err := hybridpart.NewEngine(d.options()...)
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, e)
	}
	// The first round is the reference set, the rest warm up.
	for i := 0; i < 4; i++ {
		sum, err := s.round(nil, -1)
		if err != nil {
			return nil, err
		}
		s.ref = sum
	}
	return s, nil
}

// round partitions all four design points, checks each simulated makespan
// against its pinned value and returns their sum.
func (s *ofdmSim) round(tr *tracer, parent int) (int64, error) {
	var sum int64
	for k, e := range s.engines {
		d := designPoints[k]
		id := tr.begin("engine.Partition", parent)
		res, err := e.Partition(context.Background(), s.w)
		tr.end(id, d.name)
		if err != nil {
			return 0, err
		}
		if res.SimulatedCycles != d.cycles {
			return 0, fmt.Errorf("%s: simulated %d cycles, pinned %d", d.name, res.SimulatedCycles, d.cycles)
		}
		sum += res.SimulatedCycles
	}
	return sum, nil
}

func (s *ofdmSim) op(tr *tracer, parent int) (time.Duration, error) {
	t0 := time.Now()
	_, err := s.round(tr, parent)
	return time.Since(t0), err
}

func (s *ofdmSim) simCycles() int64 { return s.ref }
func (s *ofdmSim) close()           {}

// serve runs one in-process POST /v1/partition and checks the response: 200,
// schema-valid, and carrying the expected X-Cache value. tr receives a
// "server.ServeHTTP" span tagged "<app>:<x-cache>".
func serve(srv *server.Server, body []byte, app, wantCache string, tr *tracer, parent int) (*server.ResultJSON, []byte, time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	id := tr.begin("server.ServeHTTP", parent)
	t0 := time.Now()
	srv.ServeHTTP(rec, req)
	lat := time.Since(t0)
	xc := rec.Header().Get("X-Cache")
	tr.end(id, app+":"+xc)
	out := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		return nil, nil, 0, fmt.Errorf("%s: status %d: %s", app, rec.Code, bytes.TrimSpace(out))
	}
	if xc != wantCache {
		return nil, nil, 0, fmt.Errorf("%s: X-Cache %q, want %q", app, xc, wantCache)
	}
	res, err := checkSchema(out)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", app, err)
	}
	return res, out, lat, nil
}

// checkSchema decodes a /v1/partition response strictly and checks the
// invariants every sim-objective result satisfies. The empty move set is
// one of the scored prefixes, so the chosen makespan never exceeds the
// all-FPGA baseline.
func checkSchema(body []byte) (*server.ResultJSON, error) {
	var r server.ResultJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("response does not decode as ResultJSON: %w", err)
	}
	switch {
	case r.Objective != hybridpart.ObjectiveSimulated.String():
		return nil, fmt.Errorf("objective %q, want the service default %q", r.Objective, hybridpart.ObjectiveSimulated)
	case r.InitialCycles <= 0 || r.FinalCycles <= 0:
		return nil, fmt.Errorf("model cycles initial %d final %d", r.InitialCycles, r.FinalCycles)
	case r.SimulatedCycles <= 0 || r.SimulatedCycles > r.SimulatedBaselineCycles:
		return nil, fmt.Errorf("simulated %d cycles against an all-FPGA baseline of %d", r.SimulatedCycles, r.SimulatedBaselineCycles)
	}
	return &r, nil
}

// jpegSource: one op is a POST /v1/partition of the JPEG mini-C source with
// a fresh seeded image, so every op is a cache miss.
type jpegSource struct {
	srv     *server.Server
	seed    uint64
	next    int    // index of the next op's image in the seed's stream
	srcJSON []byte // the source, JSON-quoted once
	buf     []byte
	ref     int64
}

// jpegRefSeed is the image seed of the fixed reference request.
const jpegRefSeed = 1

func setupJPEGSource(seed uint64) (instance, error) {
	if err := verifyApps(seed); err != nil {
		return nil, err
	}
	return newJPEGSource(seed)
}

func newJPEGSource(seed uint64) (*jpegSource, error) {
	src, err := apps.JPEGSource()
	if err != nil {
		return nil, err
	}
	q, err := json.Marshal(src)
	if err != nil {
		return nil, err
	}
	s := &jpegSource{srv: server.New(server.Config{}), seed: seed, srcJSON: q}
	res, _, _, err := serve(s.srv, s.body(hybridpart.JPEGImage(jpegRefSeed)), "jpeg", "miss", nil, -1)
	if err != nil {
		s.close()
		return nil, err
	}
	s.ref = res.SimulatedCycles
	if _, err := s.op(nil, -1); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// body encodes the request for one image into the reused buffer.
func (s *jpegSource) body(img []int32) []byte {
	b := append(s.buf[:0], `{"source":`...)
	b = append(b, s.srcJSON...)
	b = append(b, `,"entry":"`+hybridpart.JPEGEntryFunc+`","inputs":{"`+hybridpart.JPEGImageArray+`":[`...)
	for i, v := range img {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, "]}}"...)
	s.buf = b
	return b
}

func (s *jpegSource) op(tr *tracer, parent int) (time.Duration, error) {
	img := hybridpart.JPEGImage(subSeed(s.seed, streamJPEGImage, s.next))
	s.next++
	_, _, lat, err := serve(s.srv, s.body(img), "jpeg", "miss", tr, parent)
	return lat, err
}

func (s *jpegSource) simCycles() int64 { return s.ref }
func (s *jpegSource) close()           { s.srv.Close() }

// ofdm-service key space: Zipf-drawn constraints over svcKeys keys against a
// svcCapacity-entry LRU keeps the steady hit ratio near 0.7, well away from
// both reported percentiles (p50 lands on hits, p90 on misses).
const (
	svcCapacity   = 64
	svcKeys       = 1024
	svcZipfS      = 1.2
	svcFrames     = 8
	svcConstraint = 20000 // constraint of key k is svcConstraint + 100·k
)

// svcCycles is the simulated makespan every ofdm-service request must
// report: the objective walks the whole trajectory, so the constraint
// changes the cache key but not the chosen mapping.
const svcCycles = 236888

// ofdmService: one op is a POST /v1/partition for benchmark ofdm ×8 with a
// Zipf-drawn constraint.
type ofdmService struct {
	srv    *server.Server
	bodies [][]byte
	zipf   *rand.Zipf
	lru    *lruMirror
	stored map[int][]byte // response body of each key's last miss
	ref    int64
	hits   int
	misses int
}

func setupOFDMService(seed uint64) (instance, error) {
	if err := verifyApps(seed); err != nil {
		return nil, err
	}
	return newOFDMService(seed)
}

func newOFDMService(seed uint64) (*ofdmService, error) {
	s := &ofdmService{
		srv:    server.New(server.Config{CacheCapacity: svcCapacity}),
		zipf:   rand.NewZipf(rand.New(rand.NewPCG(seed, streamZipf)), svcZipfS, 1, svcKeys-1),
		lru:    newLRUMirror(svcCapacity),
		stored: map[int][]byte{},
	}
	for k := 0; k < svcKeys; k++ {
		b, err := json.Marshal(server.PartitionRequest{
			Benchmark:  hybridpart.BenchOFDM,
			Frames:     svcFrames,
			Constraint: int64(svcConstraint + 100*k),
		})
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	// The reference set is the warm-up: the svcCapacity most popular keys,
	// least popular first, so the cache starts near its steady state.
	for k := svcCapacity - 1; k >= 0; k-- {
		res, _, err := s.request(k, nil, -1)
		if err != nil {
			s.close()
			return nil, err
		}
		s.ref += res.SimulatedCycles
	}
	return s, nil
}

// request serves key k, checking X-Cache against the client-side LRU
// mirror, the pinned makespan, and that a hit returns the stored bytes.
func (s *ofdmService) request(k int, tr *tracer, parent int) (*server.ResultJSON, time.Duration, error) {
	want := "miss"
	if s.lru.touch(k) {
		want = "hit"
	}
	res, body, lat, err := serve(s.srv, s.bodies[k], "ofdm", want, tr, parent)
	if err != nil {
		return nil, 0, err
	}
	if res.SimulatedCycles != svcCycles {
		return nil, 0, fmt.Errorf("ofdm key %d: simulated %d cycles, pinned %d", k, res.SimulatedCycles, svcCycles)
	}
	if want == "hit" {
		s.hits++
		if !bytes.Equal(body, s.stored[k]) {
			return nil, 0, fmt.Errorf("ofdm key %d: cache hit differs from the stored miss", k)
		}
	} else {
		s.misses++
		s.stored[k] = bytes.Clone(body)
	}
	return res, lat, nil
}

func (s *ofdmService) op(tr *tracer, parent int) (time.Duration, error) {
	_, lat, err := s.request(int(s.zipf.Uint64()), tr, parent)
	return lat, err
}

func (s *ofdmService) simCycles() int64 { return s.ref }
func (s *ofdmService) close()           { s.srv.Close() }

// lruMirror replays the server's LRU policy on the client side, so every
// response's X-Cache value is predicted before it arrives.
type lruMirror struct {
	cap   int
	order *list.List // front = most recently used
	byKey map[int]*list.Element
}

func newLRUMirror(capacity int) *lruMirror {
	return &lruMirror{cap: capacity, order: list.New(), byKey: map[int]*list.Element{}}
}

// touch marks k most recently used and reports whether it was resident.
func (l *lruMirror) touch(k int) bool {
	if e, ok := l.byKey[k]; ok {
		l.order.MoveToFront(e)
		return true
	}
	l.byKey[k] = l.order.PushFront(k)
	if l.order.Len() > l.cap {
		last := l.order.Back()
		l.order.Remove(last)
		delete(l.byKey, last.Value.(int))
	}
	return false
}
