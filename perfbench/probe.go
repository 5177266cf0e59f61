package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"hybridpart"
	"hybridpart/internal/analysis"
	"hybridpart/internal/apps"
	"hybridpart/internal/finegrain"
	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
	"hybridpart/internal/minic"
	"hybridpart/internal/partition"
	"hybridpart/internal/sim"
)

// probeReps is how many times the layer probe repeats its per-layer calls;
// the timing metrics are medians over the repetitions.
const probeReps = 3

// probeServiceOps is the length of the probe's ofdm-service request stream.
const probeServiceOps = 400

// layerProbe times the public calls into each module directly, so that
// Engine.Partition and ServeHTTP, which are opaque to the timed loop, break
// down by layer. Every call it makes is a span on tr.
type layerProbe struct {
	tr  *tracer
	out map[string]metric
}

// timed runs fn inside a span.
func (p *layerProbe) timed(name, attr string, parent int, fn func() error) error {
	id := p.tr.begin(name, parent)
	err := fn()
	p.tr.end(id, attr)
	return err
}

func (p *layerProbe) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// setMedian records the median duration of the named spans in unit.
func (p *layerProbe) setMedian(metricName, span, attr, unit string) {
	var xs []float64
	for _, d := range p.tr.durations(span, attr) {
		xs = append(xs, float64(d)/float64(unitDur(unit)))
	}
	p.set(metricName, median(xs), unit)
}

func unitDur(unit string) time.Duration {
	switch unit {
	case "us":
		return time.Microsecond
	case "ms":
		return time.Millisecond
	}
	return time.Second
}

// compiled is an application lowered by the probe itself: the flattened
// entry function and the single-function program that executes it.
type compiled struct {
	entry string
	flat  *ir.Function
	fprog *ir.Program
}

// compile is the front end of hybridpart.Compile, one span per layer call.
func (p *layerProbe) compile(app, src, entry string, parent int) (*compiled, error) {
	var file *minic.File
	var prog *ir.Program
	var flat *ir.Function
	if err := p.timed("minic.Parse", app, parent, func() (err error) {
		file, err = minic.Parse(src)
		return err
	}); err != nil {
		return nil, err
	}
	if err := p.timed("lower.Lower", app, parent, func() (err error) {
		prog, err = lower.Lower(file)
		return err
	}); err != nil {
		return nil, err
	}
	if err := p.timed("lower.Flatten", app, parent, func() (err error) {
		flat, err = lower.Flatten(prog, entry)
		return err
	}); err != nil {
		return nil, err
	}
	fprog := ir.NewProgram()
	fprog.Globals = prog.Globals
	if err := fprog.AddFunc(flat); err != nil {
		return nil, err
	}
	return &compiled{entry: entry, flat: flat, fprog: fprog}, fprog.Validate()
}

// profiled is one interpreter run's dynamic analysis.
type profiled struct {
	m      *interp.Machine
	freq   []uint64
	edges  []finegrain.EdgeFreq
	instrs uint64
}

// profile runs the interpreter once with the input array loaded.
func (p *layerProbe) profile(app string, c *compiled, array string, input []int32, parent int) (*profiled, error) {
	m := interp.New(c.fprog)
	prof := m.EnableProfile()
	copy(m.Global(array), input)
	if err := p.timed("interp.Run", app, parent, func() error {
		_, err := m.Run(c.entry)
		return err
	}); err != nil {
		return nil, err
	}
	out := &profiled{m: m, freq: make([]uint64, len(c.flat.Blocks)), instrs: prof.Instrs}
	copy(out.freq, prof.Counts[c.entry])
	for k, n := range prof.Edges[c.entry] {
		out.edges = append(out.edges, finegrain.EdgeFreq{From: k.From(), To: k.To(), N: n})
	}
	sort.Slice(out.edges, func(i, j int) bool {
		if out.edges[i].From != out.edges[j].From {
			return out.edges[i].From < out.edges[j].From
		}
		return out.edges[i].To < out.edges[j].To
	})
	return out, nil
}

// runProbe executes the layer probe and returns the per-layer metrics.
func runProbe(tr *tracer, seed uint64) (map[string]metric, error) {
	p := &layerProbe{tr: tr, out: map[string]metric{}}
	jsrc, err := apps.JPEGSource()
	if err != nil {
		return nil, err
	}
	img := hybridpart.JPEGImage(subSeed(seed, streamProbe, 0))
	bits := hybridpart.OFDMBits(ofdmProfileSeed)
	ow, err := hybridpart.BenchmarkWorkload(hybridpart.BenchOFDM, ofdmProfileSeed)
	if err != nil {
		return nil, err
	}
	jw, err := hybridpart.NewWorkload(jsrc, hybridpart.JPEGEntryFunc)
	if err == nil {
		err = jw.SetInput(hybridpart.JPEGImageArray, img)
	}
	if err == nil {
		_, err = jw.Run()
	}
	if err != nil {
		return nil, err
	}

	var (
		jpegBlocks, prefixes int
		jpegInstrs           uint64
		tight                []float64
		stats                hybridpart.SimScoreStats
		jstats               hybridpart.SimScoreStats
	)
	for rep := 0; rep < probeReps; rep++ {
		// JPEG front end, interpreter profile and analysis.
		root := tr.begin("probe.jpeg", -1)
		jc, err := p.compile("jpeg", jsrc, hybridpart.JPEGEntryFunc, root)
		if err != nil {
			return nil, err
		}
		jp, err := p.profile("jpeg", jc, hybridpart.JPEGImageArray, img, root)
		if err != nil {
			return nil, err
		}
		if err := checkJPEG(jp.m.Global(hybridpart.JPEGStream), jp.m.Global(hybridpart.JPEGBitsArray)[0], img); err != nil {
			return nil, err
		}
		id := tr.begin("analysis.Analyze", root)
		analysis.Analyze(jc.flat, jp.freq, analysis.DefaultWeights())
		tr.end(id, "jpeg")
		jpegBlocks, jpegInstrs = len(jc.flat.Blocks), jp.instrs
		var jres *hybridpart.Result
		if err := p.timed("engine.Partition", "jpeg", root, func() (err error) {
			eng, err := hybridpart.NewEngine(hybridpart.WithObjective(hybridpart.ObjectiveSimulated))
			if err == nil {
				jres, err = eng.Partition(context.Background(), jw)
			}
			return err
		}); err != nil {
			return nil, err
		}
		jstats = jres.SimStats
		tr.end(root, "")

		// OFDM: front end, profile, the closed-form move loop, then each
		// design point's engine run and its trajectory replayed layer by
		// layer.
		root = tr.begin("probe.ofdm", -1)
		oc, err := p.compile("ofdm", apps.OFDMSource(), hybridpart.OFDMEntryFunc, root)
		if err != nil {
			return nil, err
		}
		op, err := p.profile("ofdm", oc, hybridpart.OFDMBitsArray, bits, root)
		if err != nil {
			return nil, err
		}
		if err := checkOFDM(op.m.Global(hybridpart.OFDMOutIArray), op.m.Global(hybridpart.OFDMOutQArray), bits); err != nil {
			return nil, err
		}
		id = tr.begin("analysis.Analyze", root)
		an := analysis.Analyze(oc.flat, op.freq, analysis.DefaultWeights())
		tr.end(id, "ofdm")
		if err := p.timed("partition.Partition", "ofdm", root, func() error {
			_, err := partition.Partition(context.Background(), oc.fprog, oc.flat, an, partition.Config{
				Platform:   designPoints[0].platform(),
				Constraint: hybridpart.DefaultOptions().Constraint,
				Order:      hybridpart.OrderByTotalWeight,
				Edges:      op.edges,
			})
			return err
		}); err != nil {
			return nil, err
		}
		stats = hybridpart.SimScoreStats{}
		prefixes = 0
		for _, d := range designPoints {
			var traj []ir.BlockID
			observe := hybridpart.WithObserver(func(ev hybridpart.Event) {
				if mv, ok := ev.(hybridpart.MoveEvent); ok {
					traj = append(traj, ir.BlockID(mv.Block))
				}
			})
			eng, err := hybridpart.NewEngine(append(d.options(), observe)...)
			if err != nil {
				return nil, err
			}
			var res *hybridpart.Result
			if err := p.timed("engine.Partition", d.name, root, func() (err error) {
				res, err = eng.Partition(context.Background(), ow)
				return err
			}); err != nil {
				return nil, err
			}
			if res.SimulatedCycles != d.cycles {
				return nil, fmt.Errorf("%s: engine simulated %d cycles, pinned %d", d.name, res.SimulatedCycles, d.cycles)
			}
			addStats(&stats, res.SimStats)
			best, n, err := p.replayTrajectory(d, oc, op, traj, root, &tight)
			if err != nil {
				return nil, err
			}
			if best != d.cycles {
				return nil, fmt.Errorf("%s: layer replay's best prefix is %d cycles, engine chose %d", d.name, best, d.cycles)
			}
			prefixes += n
		}
		tr.end(root, "")
	}
	if err := p.serviceProbe(seed); err != nil {
		return nil, err
	}

	p.setMedian("minic.parse_ms", "minic.Parse", "jpeg", "ms")
	p.setMedian("lower.lower_ms", "lower.Lower", "jpeg", "ms")
	p.setMedian("lower.flatten_ms", "lower.Flatten", "jpeg", "ms")
	p.set("lower.blocks", float64(jpegBlocks), "count")
	p.setMedian("interp.run_ms", "interp.Run", "jpeg", "ms")
	p.set("interp.instrs", float64(jpegInstrs), "count")
	p.set("interp.ns_per_instr", p.out["interp.run_ms"].Value*1e6/float64(jpegInstrs), "ns")
	p.setMedian("analysis.analyze_ms", "analysis.Analyze", "jpeg", "ms")
	p.setMedian("finegrain.pack_us", "finegrain.PackFunction", "", "us")
	p.set("finegrain.packs_per_op", float64(prefixes), "count")
	p.setMedian("sim.replayer_ms", "sim.NewReplayer", "", "ms")
	p.setMedian("sim.lower_bound_us", "sim.LowerBound", "", "us")
	p.setMedian("sim.fine_walk_bound_us", "sim.FineWalkBound", "", "us")
	p.setMedian("sim.makespan_us", "sim.Makespan", "", "us")
	p.set("sim.bound_tightness", mean(tight), "ratio")
	p.setMedian("partition.moveloop_ms", "partition.Partition", "ofdm", "ms")
	for _, d := range designPoints {
		p.setMedian("engine.partition_ms."+d.name, "engine.Partition", d.name, "ms")
	}
	p.set("engine.scored", float64(stats.Scored), "count")
	p.set("engine.replays", float64(stats.Replays), "count")
	p.set("engine.closed_form", float64(stats.ClosedForm), "count")
	p.set("engine.incremental", float64(stats.Incremental), "count")
	p.set("engine.memo_hits", float64(stats.MemoHits), "count")
	p.set("engine.pruned", float64(stats.Pruned), "count")
	p.set("engine.prune_ratio", float64(stats.Pruned)/float64(stats.Pruned+stats.Scored), "ratio")
	p.setMedian("engine.partition_ms.jpeg", "engine.Partition", "jpeg", "ms")
	p.set("engine.jpeg_closed_form", float64(jstats.ClosedForm), "count")
	p.set("engine.jpeg_incremental", float64(jstats.Incremental), "count")
	return p.out, nil
}

// replayTrajectory walks every prefix of a design point's move trajectory
// through the layers the scorer uses — PackFunction, both admissible bounds
// and the replay — and returns the best makespan and the prefix count. Each
// bound must stay at or below its prefix's makespan.
func (p *layerProbe) replayTrajectory(d designPoint, c *compiled, pr *profiled, traj []ir.BlockID,
	parent int, tight *[]float64) (int64, int, error) {
	plat := d.platform()
	cfg := d.simConfig()
	var rep *sim.Replayer
	if err := p.timed("sim.NewReplayer", d.name, parent, func() (err error) {
		rep, err = sim.NewReplayer(sim.Input{Prog: c.fprog, F: c.flat, Plat: plat, Freq: pr.freq, Edges: pr.edges})
		return err
	}); err != nil {
		return 0, 0, err
	}
	p.set("sim.trace_len", float64(rep.TraceLen()), "count")
	arena := new(sim.Arena)
	best := int64(math.MaxInt64)
	for k := 0; k <= len(traj); k++ {
		moved := traj[:k]
		inMoved := make([]bool, len(c.flat.Blocks))
		for _, b := range moved {
			inMoved[b] = true
		}
		var lb, wb, ms int64
		if err := p.timed("finegrain.PackFunction", d.name, parent, func() error {
			_, err := finegrain.PackFunction(c.flat, plat.Fine, func(id ir.BlockID) bool { return !inMoved[id] })
			return err
		}); err != nil {
			return 0, 0, err
		}
		if err := p.timed("sim.LowerBound", d.name, parent, func() (err error) {
			lb, err = rep.LowerBound(cfg, moved)
			return err
		}); err != nil {
			return 0, 0, err
		}
		if err := p.timed("sim.FineWalkBound", d.name, parent, func() (err error) {
			wb, err = rep.FineWalkBound(cfg, moved, arena)
			return err
		}); err != nil {
			return 0, 0, err
		}
		if err := p.timed("sim.Makespan", d.name, parent, func() (err error) {
			ms, err = rep.Makespan(context.Background(), cfg, moved, arena)
			return err
		}); err != nil {
			return 0, 0, err
		}
		if lb > ms || wb > ms {
			return 0, 0, fmt.Errorf("%s prefix %d: bounds %d/%d exceed the makespan %d", d.name, k, lb, wb, ms)
		}
		*tight = append(*tight, float64(wb)/float64(ms))
		best = min(best, ms)
	}
	return best, len(traj) + 1, nil
}

// serviceProbe splits ServeHTTP by X-Cache: an ofdm-service request stream
// on a fresh server for the hit and miss paths, and one jpeg-source miss.
func (p *layerProbe) serviceProbe(seed uint64) error {
	svc, err := newOFDMService(seed + 1)
	if err != nil {
		return err
	}
	defer svc.close()
	warmMisses := svc.misses
	svc.hits, svc.misses = 0, 0
	root := p.tr.begin("probe.service", -1)
	defer p.tr.end(root, "")
	for i := 0; i < probeServiceOps; i++ {
		if _, err := svc.op(p.tr, root); err != nil {
			return err
		}
	}
	st := svc.srv.CacheStats()
	if int(st.Hits) != svc.hits || int(st.Misses) != warmMisses+svc.misses {
		return fmt.Errorf("cache stats %d hits / %d misses disagree with the client's %d / %d",
			st.Hits, st.Misses, svc.hits, warmMisses+svc.misses)
	}
	p.set("cache.hit_ratio", float64(svc.hits)/float64(svc.hits+svc.misses), "ratio")
	p.setMedian("server.hit_us", "server.ServeHTTP", "ofdm:hit", "us")
	p.setMedian("server.miss_ms", "server.ServeHTTP", "ofdm:miss", "ms")

	js, err := newJPEGSource(seed + 1)
	if err != nil {
		return err
	}
	defer js.close()
	for i := 0; i < probeReps; i++ {
		if _, err := js.op(p.tr, root); err != nil {
			return err
		}
	}
	p.setMedian("server.jpeg_miss_ms", "server.ServeHTTP", "jpeg:miss", "ms")
	return nil
}

func addStats(dst *hybridpart.SimScoreStats, s hybridpart.SimScoreStats) {
	dst.Scored += s.Scored
	dst.Replays += s.Replays
	dst.ClosedForm += s.ClosedForm
	dst.Incremental += s.Incremental
	dst.MemoHits += s.MemoHits
	dst.Pruned += s.Pruned
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
