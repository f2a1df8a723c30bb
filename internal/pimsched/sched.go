package pimsched

import (
	"fmt"

	"repro/internal/pim"
)

// Shard is one placeable unit of work: staged onto whichever DPU the
// scheduler picks, executed by its kernel, gathered back. Stage and
// Gather may be nil for shards without input or output; a nil Kernel
// runs an empty tasklet program. BytesIn/BytesOut declare the host
// transfer volume the closures perform — the transfer cost model
// prices the declared bytes, so drivers must declare exactly what they
// copy.
type Shard struct {
	Stage    func(dpu int) error
	Kernel   pim.KernelFunc
	Gather   func(dpu int) error
	BytesIn  int64
	BytesOut int64
}

// Scheduler owns the async execution plane over one simulated System.
// It is not safe for concurrent Run calls — callers serialize (the
// hepim server already runs ops one at a time per context).
type Scheduler struct {
	Sys     *pim.System
	Topo    Topology
	Xfer    TransferModel
	Overlap bool // pipeline staging/compute/gathering across ranks
}

// New builds a scheduler over sys with the given topology. The
// topology must fit inside the system's DPU array (the scheduler
// addresses DPUs [0, topo.NumDPUs())).
func New(sys *pim.System, topo Topology, overlap bool) (*Scheduler, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if topo.NumDPUs() > len(sys.DPUs) {
		return nil, fmt.Errorf("pimsched: topology %v exceeds system's %d DPUs", topo, len(sys.DPUs))
	}
	return &Scheduler{
		Sys:     sys,
		Topo:    topo,
		Xfer:    NewTransferModel(sys.Config, topo),
		Overlap: overlap,
	}, nil
}

// TargetShards picks how many shards to cut for `items` independent
// work items: one per live in-topology DPU, fewer when there are fewer
// items (always ≥ 1; a fully dead system surfaces ErrNoLiveDPUs at
// Run time instead).
func (s *Scheduler) TargetShards(items int) int {
	live := 0
	for _, id := range s.Sys.LiveDPUIDs() {
		if id < s.Topo.NumDPUs() {
			live++
		}
	}
	n := live
	if items < n {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

// chunk is the launch granularity: one rank's shards of one wave. The
// dispatcher issues one LaunchOn per chunk, so chunks on different
// ranks can overlap staging with compute.
type chunk struct {
	rank   int
	shards []int // indices into the round's shard-index list
	dpus   []int // dpus[j] runs shards[j]
}

// place cuts the pending shards into chunks: shards land on live DPUs
// in ID order (wave after wave when there are fewer live DPUs than
// shards), and each wave splits at rank boundaries.
func (s *Scheduler) place(nPending int) ([]chunk, error) {
	live := make([]int, 0, s.Topo.NumDPUs())
	for _, id := range s.Sys.LiveDPUIDs() {
		if id < s.Topo.NumDPUs() {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return nil, pim.ErrNoLiveDPUs
	}
	var chunks []chunk
	for w := 0; w < nPending; w += len(live) {
		waveLen := min(len(live), nPending-w)
		cur := chunk{rank: -1}
		for j := 0; j < waveLen; j++ {
			dpu := live[j]
			r := s.Topo.RankOf(dpu)
			if r != cur.rank {
				if len(cur.shards) > 0 {
					chunks = append(chunks, cur)
				}
				cur = chunk{rank: r}
			}
			cur.shards = append(cur.shards, w+j)
			cur.dpus = append(cur.dpus, dpu)
		}
		if len(cur.shards) > 0 {
			chunks = append(chunks, cur)
		}
	}
	return chunks, nil
}

// timeline is the modeled pipeline state, carried across retry rounds.
// Copy-in transfers serialize on the in-bus, copy-outs on the out-bus,
// and a rank cannot restage until its previous chunk has fully drained
// (single-buffered MRAM: the kernel reads its inputs in place, and the
// gather must not race the next stage).
type timeline struct {
	inBusFree  float64
	outBusFree float64
	rankFree   map[int]float64
	makespan   float64
	serial     float64
}

func newTimeline() *timeline { return &timeline{rankFree: make(map[int]float64)} }

// advance folds one chunk's modeled phases into the pipeline:
//
//	inDone  = max(inBusFree, rankFree[rank]) + tIn
//	compDone = inDone + tK
//	outDone = max(outBusFree, compDone) + tOut
//
// and the no-overlap serial time just sums tIn+tK+tOut.
func (tl *timeline) advance(rank int, tIn, tK, tOut float64) {
	start := tl.inBusFree
	if rf := tl.rankFree[rank]; rf > start {
		start = rf
	}
	inDone := start + tIn
	tl.inBusFree = inDone
	compDone := inDone + tK
	outStart := tl.outBusFree
	if compDone > outStart {
		outStart = compDone
	}
	outDone := outStart + tOut
	tl.outBusFree = outDone
	tl.rankFree[rank] = outDone
	if outDone > tl.makespan {
		tl.makespan = outDone
	}
	tl.serial += tIn + tK + tOut
}

// gatherResult is one chunk's outcome, reported by its gather goroutine.
type gatherResult struct {
	chunk  int
	failed []failedShard // shards needing retry/re-dispatch
	err    error         // non-fault error: aborts the run
}

type failedShard struct {
	shard     int
	permanent bool
}

// Run executes the shards across the topology and returns the merged
// report. Faulted shards are retried (transient) or re-placed on
// survivors (dead DPU) in bounded rounds; any non-fault error aborts.
// MRAM is scratch for the run: once the last gather has returned, Run
// drops the MRAM image of every DPU in the topology.
func (s *Scheduler) Run(shards []Shard) (*Report, error) {
	defer func() {
		for _, d := range s.Sys.DPUs[:s.Topo.NumDPUs()] {
			d.ReleaseMRAM()
		}
	}()
	rep := &Report{Shards: len(shards), Topology: s.Topo, Overlap: s.Overlap}
	for i := range shards {
		rep.BytesIn += shards[i].BytesIn
		rep.BytesOut += shards[i].BytesOut
	}
	tl := newTimeline()
	pending := make([]int, len(shards))
	for i := range pending {
		pending[i] = i
	}
	budget := s.Sys.RetryBudget()
	for round := 0; len(pending) > 0; round++ {
		if round > budget {
			return nil, fmt.Errorf("%w: %d shard(s) still failing after %d round(s)",
				pim.ErrFaultBudget, len(pending), round)
		}
		failed, err := s.runRound(shards, pending, tl, rep)
		if err != nil {
			return nil, err
		}
		var next []int
		for _, f := range failed {
			if f.permanent {
				s.Sys.NoteRedispatch()
				rep.Resharded++
			} else {
				s.Sys.NoteRetry()
				rep.Retried++
			}
			next = append(next, f.shard)
		}
		pending = next
	}
	rep.MakespanSeconds = tl.makespan
	rep.SerialSeconds = tl.serial
	if !s.Overlap {
		rep.MakespanSeconds = tl.serial
	}
	s.priceEnergy(rep)
	return rep, nil
}

// runRound places the pending shards into chunks and executes them as
// a three-stage pipeline: a stager goroutine copies chunk inputs in
// (waiting for the chunk's rank to drain its previous chunk), the
// dispatcher — this goroutine — issues every LaunchOn in chunk order
// so the fault schedule stays deterministic, and per-chunk gather
// goroutines copy results out. Only memcpys run concurrently; kernels
// execute inside the dispatcher's LaunchOn calls.
func (s *Scheduler) runRound(shards []Shard, pending []int, tl *timeline, rep *Report) ([]failedShard, error) {
	chunks, err := s.place(len(pending))
	if err != nil {
		return nil, err
	}
	rep.Chunks += len(chunks)
	rep.Launches += len(chunks)
	if rep.ActiveDPUs == 0 {
		seen := map[int]bool{}
		ranks := map[int]bool{}
		for _, c := range chunks {
			ranks[c.rank] = true
			for _, d := range c.dpus {
				seen[d] = true
			}
		}
		rep.ActiveDPUs = len(seen)
		rep.RanksUsed = len(ranks)
	}

	// prev[c] = index of the chunk before c on the same rank (-1 if none):
	// the stage of chunk c must wait for prev[c]'s gather (single-buffered
	// MRAM), mirroring the timeline's rankFree dependency.
	prev := make([]int, len(chunks))
	last := map[int]int{}
	for c := range chunks {
		prev[c] = -1
		if p, ok := last[chunks[c].rank]; ok {
			prev[c] = p
		}
		last[chunks[c].rank] = c
	}

	stageErr := make([]chan error, len(chunks))
	gatherDone := make([]chan struct{}, len(chunks))
	for c := range chunks {
		stageErr[c] = make(chan error, 1)
		gatherDone[c] = make(chan struct{})
	}
	results := make(chan gatherResult, len(chunks))

	stage := func(c int) {
		if p := prev[c]; p >= 0 {
			<-gatherDone[p]
		}
		var err error
		for j, si := range chunks[c].shards {
			sh := &shards[pending[si]]
			if sh.Stage == nil {
				continue
			}
			if e := sh.Stage(chunks[c].dpus[j]); e != nil {
				err = e
				break
			}
		}
		stageErr[c] <- err
	}
	gather := func(c int, errs []error) {
		res := gatherResult{chunk: c}
		for j, si := range chunks[c].shards {
			switch fe := errs[j].(type) {
			case nil:
				sh := &shards[pending[si]]
				if sh.Gather != nil {
					if e := sh.Gather(chunks[c].dpus[j]); e != nil && res.err == nil {
						res.err = e
					}
				}
			case *pim.FaultError:
				res.failed = append(res.failed, failedShard{shard: pending[si], permanent: fe.Permanent})
			default:
				if res.err == nil {
					res.err = errs[j]
				}
			}
		}
		close(gatherDone[c])
		results <- res
	}

	launched := 0
	var runErr error
	go stage(0)
	for c := range chunks {
		if e := <-stageErr[c]; e != nil {
			runErr = e
			break
		}
		if c+1 < len(chunks) {
			go stage(c + 1)
		}
		byDPU := make(map[int]pim.KernelFunc, len(chunks[c].dpus))
		for j, d := range chunks[c].dpus {
			byDPU[d] = shards[pending[chunks[c].shards[j]]].Kernel
		}
		crep, errs := s.Sys.LaunchOn(chunks[c].dpus, func(dpuID int) pim.KernelFunc {
			if k := byDPU[dpuID]; k != nil {
				return k
			}
			return func(*pim.TaskletCtx) error { return nil }
		})
		launched++
		s.accountChunk(rep, tl, &chunks[c], crep, errs, shards, pending)
		go gather(c, errs)
	}

	// Drain every launched chunk's gather before returning (on abort the
	// unlaunched chunks never produce results, and any in-flight stage
	// goroutine only blocks on gatherDone channels of launched chunks).
	var failed []failedShard
	for i := 0; i < launched; i++ {
		res := <-results
		if res.err != nil && runErr == nil {
			runErr = res.err
		}
		failed = append(failed, res.failed...)
	}
	if runErr != nil {
		return nil, runErr
	}
	return failed, nil
}

// accountChunk folds one chunk's launch into the report and the
// timeline. tK comes from the chunk's critical-path cycles (the max
// over its DPUs, straggler inflation included) plus the per-launch
// overhead; tIn/tOut price the chunk's largest per-DPU declared
// transfer. Faulted slots still charge their copy-in — the bytes
// moved before the fault are not refunded.
func (s *Scheduler) accountChunk(rep *Report, tl *timeline, c *chunk, crep *pim.Report, errs []error, shards []Shard, pending []int) {
	var maxIn, maxOut int64
	for j, si := range c.shards {
		sh := &shards[pending[si]]
		if sh.BytesIn > maxIn {
			maxIn = sh.BytesIn
		}
		if errs[j] == nil && sh.BytesOut > maxOut {
			maxOut = sh.BytesOut
		}
	}
	tIn := s.Xfer.InSeconds(maxIn)
	tK := float64(crep.KernelCycles)/s.Sys.Config.ClockHz + s.Sys.Config.LaunchOverheadSec
	tOut := s.Xfer.OutSeconds(maxOut)
	tl.advance(c.rank, tIn, tK, tOut)

	rep.KernelCycles += crep.KernelCycles
	rep.KernelSeconds += tK
	rep.CopyInSeconds += tIn
	rep.CopyOutSeconds += tOut
	rep.TotalInstr += crep.TotalInstr
	rep.TotalDMACycles += crep.TotalDMACycles
	rep.Counts.Add(&crep.Counts)
}

// Retry rounds re-stage their inputs, so re-run shards charge their
// copy-in again; declared BytesIn/BytesOut in the report stay the
// logical volume of the workload (one pass), matching how the
// monolithic drivers account transfers.
func (s *Scheduler) priceEnergy(rep *Report) {
	em := pim.DefaultEnergyModel()
	krep := &pim.Report{
		TotalInstr:     rep.TotalInstr,
		TotalDMACycles: rep.TotalDMACycles,
		KernelCycles:   rep.KernelCycles,
		ActiveDPUs:     rep.ActiveDPUs,
	}
	rep.EnergyKernelJoules = em.KernelEnergyJoules(krep, &s.Sys.Config)
	rep.EnergyTransferJoules = em.HostTransferEnergyJoules(rep.BytesIn + rep.BytesOut)
}
