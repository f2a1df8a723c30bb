package pim

import (
	"fmt"

	"repro/internal/limb32"
)

// WRAMWords is the per-DPU working RAM capacity in 32-bit words (64 KB).
// Kernels stage MRAM data through WRAM tiles no larger than this.
const WRAMWords = 64 * 1024 / 4

// MRAMWords is the per-DPU main RAM capacity in 32-bit words (64 MB).
const MRAMWords = 64 * 1024 * 1024 / 4

// DPU models one DRAM Processing Unit: its MRAM bank and the cycle
// accounting of the tasklets that ran on it. MRAM is allocated lazily so a
// 2,524-DPU system does not reserve 158 GB of host memory, and released
// after each scheduler run (see ReleaseMRAM).
type DPU struct {
	ID   int
	mram []uint32
	dead bool // permanently failed (fault model); excluded from live sets

	// Accounting for the most recent kernel launch.
	taskletInstr []int64 // dynamic instructions per tasklet
	taskletDMA   []int64 // DMA cycles issued per tasklet
	counts       limb32.Counts
}

// EnsureMRAM grows the MRAM image to hold at least words 32-bit words.
func (d *DPU) EnsureMRAM(words int) error {
	if words > MRAMWords {
		return fmt.Errorf("pim: DPU %d MRAM request %d words exceeds capacity %d",
			d.ID, words, MRAMWords)
	}
	if len(d.mram) < words {
		grown := make([]uint32, words)
		copy(grown, d.mram)
		d.mram = grown
	}
	return nil
}

// MRAM returns the raw MRAM image (host-side access, not charged).
func (d *DPU) MRAM() []uint32 { return d.mram }

// ReleaseMRAM drops the MRAM image; the next copy or EnsureMRAM grows
// a fresh zeroed one.
func (d *DPU) ReleaseMRAM() { d.mram = nil }

// resetAccounting zeroes the per-tasklet counters for a launch, reusing
// the previous launch's slices.
func (d *DPU) resetAccounting(tasklets int) {
	d.taskletInstr = resetCounters(d.taskletInstr, tasklets)
	d.taskletDMA = resetCounters(d.taskletDMA, tasklets)
	d.counts.Reset()
}

func resetCounters(c []int64, n int) []int64 {
	if cap(c) < n {
		return make([]int64, n)
	}
	c = c[:n]
	clear(c)
	return c
}

// cycles folds the per-tasklet accounting into the DPU's kernel cycle
// count under the three-roofline model (see package comment).
func (d *DPU) cycles(cost *CostModel) int64 {
	var total, maxTasklet, dma int64
	for i := range d.taskletInstr {
		total += d.taskletInstr[i]
		lat := d.taskletInstr[i] * int64(cost.RevolverDepth)
		if lat > maxTasklet {
			maxTasklet = lat
		}
		dma += d.taskletDMA[i]
	}
	c := total
	if maxTasklet > c {
		c = maxTasklet
	}
	if dma > c {
		c = dma
	}
	return c
}

// TaskletCtx is the execution context handed to kernel code running as
// one tasklet on one DPU. It implements limb32.Meter, so kernel arithmetic
// charges the tasklet transparently. A launch reuses one context for all
// tasklets of the DPUs one host worker runs, so kernels must not keep it
// after they return.
type TaskletCtx struct {
	dpu         *DPU
	cost        *CostModel
	wram        []uint32
	TaskletID   int
	NumTasklets int
}

var _ limb32.Meter = (*TaskletCtx)(nil)

// Tick implements limb32.Meter: n operations of class op become dynamic
// instructions under the cost model.
func (c *TaskletCtx) Tick(op limb32.Op, n int) {
	c.dpu.taskletInstr[c.TaskletID] += c.cost.InstrFor(op, int64(n))
	c.dpu.counts[op] += int64(n)
}

// MRAMRead DMAs words from MRAM (word offset off) into the WRAM buffer
// dst. The transfer is charged to this tasklet's DMA account.
func (c *TaskletCtx) MRAMRead(off int, dst []uint32) {
	if len(dst) > WRAMWords {
		panic("pim: MRAMRead larger than WRAM")
	}
	if off < 0 || off+len(dst) > len(c.dpu.mram) {
		panic(fmt.Sprintf("pim: DPU %d MRAM read [%d,%d) out of bounds %d",
			c.dpu.ID, off, off+len(dst), len(c.dpu.mram)))
	}
	copy(dst, c.dpu.mram[off:off+len(dst)])
	c.dpu.taskletDMA[c.TaskletID] += c.cost.DMACycles(4 * len(dst))
}

// MRAMWrite DMAs the WRAM buffer src into MRAM at word offset off.
func (c *TaskletCtx) MRAMWrite(off int, src []uint32) {
	if len(src) > WRAMWords {
		panic("pim: MRAMWrite larger than WRAM")
	}
	if off < 0 || off+len(src) > len(c.dpu.mram) {
		panic(fmt.Sprintf("pim: DPU %d MRAM write [%d,%d) out of bounds %d",
			c.dpu.ID, off, off+len(src), len(c.dpu.mram)))
	}
	copy(c.dpu.mram[off:off+len(src)], src)
	c.dpu.taskletDMA[c.TaskletID] += c.cost.DMACycles(4 * len(src))
}

// WRAM returns words words of tasklet scratch for WRAM tiles. The
// buffer is reused by the next tasklet the context runs, so its contents
// are undefined on entry and kernels must not keep it after they
// return. Like real WRAM, it is not charged; the DMAs filling it are.
func (c *TaskletCtx) WRAM(words int) []uint32 {
	if words > WRAMWords {
		panic("pim: WRAM request larger than WRAM")
	}
	if cap(c.wram) < words {
		c.wram = make([]uint32, words)
	}
	return c.wram[:words]
}

// ChargeInstr charges raw dynamic instructions (loop setup, address
// arithmetic) that are not expressed through limb32 operations.
func (c *TaskletCtx) ChargeInstr(n int64) {
	c.dpu.taskletInstr[c.TaskletID] += n
}

// DPUID returns the ID of the DPU this tasklet runs on.
func (c *TaskletCtx) DPUID() int { return c.dpu.ID }
