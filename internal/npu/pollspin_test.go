package npu

// Differential tests for the empty-queue poll-loop fast-forward in
// ME.step: every program runs once as written (its poll loops are marked
// and fast-forwarded) and once with each loop's `imm rX, -1` rewritten to
// the equivalent `subi rX, rZ, 1`, where rZ is a register the program never
// names and so always holds 0. markPollLoops does not match the rewritten
// loops, so the second run interprets every spin one instruction at a time.
// The two runs must be indistinguishable.

import (
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"nepdvs/internal/isa"
	"nepdvs/internal/power"
	"nepdvs/internal/sim"
	"nepdvs/internal/trace"
	"nepdvs/internal/workload"
)

var regRef = regexp.MustCompile(`\br(\d+)\b`)

// unmarkedVariant returns prog with every poll loop's `imm rX, -1` replaced
// by `subi rX, rZ, 1`, and false when the program names every register (no
// rZ is guaranteed to hold 0).
func unmarkedVariant(t *testing.T, prog *isa.Program) (*isa.Program, bool) {
	t.Helper()
	var named [isa.NumRegs]bool
	for _, in := range prog.Code {
		for _, m := range regRef.FindAllStringSubmatch(in.String(), -1) {
			r, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatal(err)
			}
			named[r] = true
		}
	}
	zero := -1
	for r := isa.NumRegs - 1; r >= 0; r-- {
		if !named[r] {
			zero = r
			break
		}
	}
	if zero < 0 {
		return nil, false
	}
	heads := markPollLoops(prog)
	v := *prog
	v.Code = append([]isa.Instr(nil), prog.Code...)
	rewritten := 0
	for pc, head := range heads {
		if !head {
			continue
		}
		imm := v.Code[pc+1]
		v.Code[pc+1] = isa.Instr{Op: isa.OpSubi, Rd: imm.Rd, Ra: uint8(zero), Imm: 1}
		rewritten++
	}
	if rewritten == 0 {
		t.Fatalf("%s: no poll loop marked", prog.Name)
	}
	if got := markPollLoops(&v); !reflect.DeepEqual(got, make([]bool, len(v.Code))) {
		t.Fatalf("%s: rewritten program still marks poll loops at %v", prog.Name, got)
	}
	return &v, true
}

// archState is a context's architectural state.
type archState struct {
	pc    int
	regs  [isa.NumRegs]int64
	state ctxState
}

// spinRun is everything observable about one run.
type spinRun struct {
	events []trace.Event
	energy float64
	instrs []uint64
	polls  []uint64
	busy   []sim.Time
	ctxs   []archState
	now    sim.Time
}

// spinCoverage records, per loop kind (rx.pop, tx.pop), which positions in
// the loop a batch ended at: offset 0 is a batch that used up its budget
// on a whole iteration (rem%3 = 0), offsets 1 and 2 leave the next batch
// starting at the imm or at the beq (rem%3 = 1, 2).
type spinCoverage map[isa.Op]*[3]bool

// runSpin simulates progs for dur under cfg with bursty traffic and a
// mid-run DVS transition, stepping the kernel one event at a time. When
// cov is non-nil it records where spinning contexts ended their batches.
func runSpin(t *testing.T, cfg Config, progs []*isa.Program, dur sim.Time, cov spinCoverage) spinRun {
	t.Helper()
	var col trace.Collector
	k := &sim.Kernel{}
	chip, err := New(cfg, k, progs, &col)
	if err != nil {
		t.Fatal(err)
	}
	// Low offered load leaves the queues empty most of the time, so the
	// loops spin, yet packets keep arriving and leave them mid-batch.
	if err := chip.Inject(genTraffic(t, 300, dur, 7)); err != nil {
		t.Fatal(err)
	}
	k.Schedule(dur/3, func() { chip.SetAllVF(power.VF{MHz: 450, Volts: 1.1}) })
	k.Schedule(2*dur/3, func() { chip.SetMEVF(0, cfg.MEVF) })
	prev := make([][]int, len(chip.mes))
	for k.Pending() > 0 && k.Now() < dur {
		if cov != nil {
			for i, me := range chip.mes {
				prev[i] = prev[i][:0]
				for _, c := range me.ctxs {
					prev[i] = append(prev[i], c.pc)
				}
			}
		}
		k.Step()
		if cov == nil {
			continue
		}
		for i, me := range chip.mes {
			for ci := range me.ctxs {
				c := &me.ctxs[ci]
				if c.pc == prev[i][ci] {
					continue
				}
				for off := 0; off < 3; off++ {
					head := c.pc - off
					if head < 0 || !me.pollHead[head] {
						continue
					}
					pop, imm := me.prog.Code[head], me.prog.Code[head+1]
					// rD == -1 proves the last pop found the queue empty;
					// past the imm, rX has been reloaded too.
					if c.regs[pop.Rd] != -1 || (off != 1 && c.regs[imm.Rd] != -1) {
						continue
					}
					if cov[pop.Op] == nil {
						cov[pop.Op] = new([3]bool)
					}
					cov[pop.Op][off] = true
				}
			}
		}
	}
	if err := chip.SinkErr(); err != nil {
		t.Fatal(err)
	}
	r := spinRun{events: col.Events, energy: chip.Meter().Total(), now: k.Now()}
	for _, me := range chip.mes {
		r.instrs = append(r.instrs, me.InstrCount())
		r.polls = append(r.polls, me.PollCycles())
		r.busy = append(r.busy, me.BusyTime())
		for _, c := range me.ctxs {
			r.ctxs = append(r.ctxs, archState{pc: c.pc, regs: c.regs, state: c.state})
		}
	}
	return r
}

// clobberRx and clobberTx leave their poll loops with rX (and, for rx,
// rD) holding values other than -1, so a fast-forward that skipped a
// register write would change a later branch. clobberTx also uses the
// swapped beq operand order.
const (
	clobberRx = `
	imm     r1, 5
main:
	rx.pop  r0
	imm     r1, -1
	beq     r0, r1, main
	imm     r1, 3
	tx.push r2, r0
	imm     r0, 9
	br      main
`
	clobberTx = `
main:
	tx.pop  r4
	imm     r9, -1
	beq     r9, r4, main
	imm     r9, 11
	send    r4
	br      main
`
)

// spinPrograms returns the per-ME program vectors to test: every shipped
// workload plus the clobbering pair.
func spinPrograms(t *testing.T, cfg Config) map[string][]*isa.Program {
	t.Helper()
	sets := map[string][]*isa.Program{}
	for _, bench := range workload.All {
		progs, err := workload.Programs(bench, workload.DefaultParams(), cfg.NumMEs, cfg.RxMEs)
		if err != nil {
			t.Fatal(err)
		}
		sets[string(bench)] = progs
	}
	rx, tx := isa.MustAssemble("clobber-rx", clobberRx), isa.MustAssemble("clobber-tx", clobberTx)
	for i := 0; i < cfg.NumMEs; i++ {
		p := tx
		if i < cfg.RxMEs {
			p = rx
		}
		sets["clobber"] = append(sets["clobber"], p)
	}
	return sets
}

func TestPollFastForwardMatchesInterpreter(t *testing.T) {
	// 256 is the default; the small budgets end batches inside the loop
	// at every offset. Together they cover rem%3 = 0, 1 and 2.
	batches := []int64{256, 7, 8, 9, 64}
	cov := spinCoverage{}
	ran := 0
	cfg := DefaultConfig()
	cfg.EmitPipeline = true // per-batch instruction counts in the trace
	sets := spinPrograms(t, cfg)
	for _, set := range []string{"ipfwdr", "url", "nat", "md4", "clobber"} {
		progs := sets[set]
		plain := make([]*isa.Program, len(progs))
		usable := true
		for i, p := range progs {
			v, ok := unmarkedVariant(t, p)
			if !ok {
				usable = false
				break
			}
			plain[i] = v
		}
		if !usable {
			// This program names all 16 registers: no rZ holds 0.
			continue
		}
		for _, b := range batches {
			cfg.BatchCycles = b
			dur := 150 * sim.Microsecond
			fast := runSpin(t, cfg, progs, dur, cov)
			slow := runSpin(t, cfg, plain, dur, nil)
			name := set + "/batch=" + strconv.FormatInt(b, 10)
			if fast.now != slow.now {
				t.Fatalf("%s: stopped at %v vs %v", name, fast.now, slow.now)
			}
			if !reflect.DeepEqual(fast.instrs, slow.instrs) {
				t.Errorf("%s: InstrCount %v, interpreted %v", name, fast.instrs, slow.instrs)
			}
			if !reflect.DeepEqual(fast.polls, slow.polls) {
				t.Errorf("%s: PollCycles %v, interpreted %v", name, fast.polls, slow.polls)
			}
			if !reflect.DeepEqual(fast.busy, slow.busy) {
				t.Errorf("%s: BusyTime %v, interpreted %v", name, fast.busy, slow.busy)
			}
			if fast.energy != slow.energy {
				t.Errorf("%s: energy %v, interpreted %v", name, fast.energy, slow.energy)
			}
			if !reflect.DeepEqual(fast.ctxs, slow.ctxs) {
				t.Errorf("%s: final contexts %+v, interpreted %+v", name, fast.ctxs, slow.ctxs)
			}
			if len(fast.events) == 0 {
				t.Fatalf("%s: empty trace", name)
			}
			if !reflect.DeepEqual(fast.events, slow.events) {
				t.Errorf("%s: trace streams differ (%d vs %d events)", name, len(fast.events), len(slow.events))
			}
			ran++
		}
	}
	if ran < 3*len(batches) {
		t.Fatalf("ran %d program sets × batch sizes, want at least ipfwdr, nat and clobber", ran)
	}
	for _, op := range []isa.Op{isa.OpRxPop, isa.OpTxPop} {
		c := cov[op]
		if c == nil || !c[0] || !c[1] || !c[2] {
			t.Errorf("%v loop: batch ends at loop offsets %v, want all of 0, 1, 2", op, c)
		}
	}
}

func TestMarkPollLoops(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"rx", "main: rx.pop r0\n imm r1, -1\n beq r0, r1, main\n halt", true},
		{"rx operands swapped", "main: rx.pop r0\n imm r1, -1\n beq r1, r0, main\n halt", true},
		{"tx", "main: tx.pop r4\n imm r9, -1\n beq r4, r9, main\n halt", true},
		{"imm not -1", "main: rx.pop r0\n imm r1, -2\n beq r0, r1, main\n halt", false},
		{"beq to another target", "main: rx.pop r0\n imm r1, -1\n beq r0, r1, other\nother: halt", false},
		{"rX == rD", "main: rx.pop r0\n imm r0, -1\n beq r0, r0, main\n halt", false},
		{"beq on another register", "main: rx.pop r0\n imm r1, -1\n beq r2, r1, main\n halt", false},
		{"bne", "main: rx.pop r0\n imm r1, -1\n bne r0, r1, main\n halt", false},
		{"subi form", "main: rx.pop r0\n subi r1, r14, 1\n beq r0, r1, main\n halt", false},
		{"not a pop", "main: mov r0, r2\n imm r1, -1\n beq r0, r1, main\n halt", false},
	}
	for _, c := range cases {
		prog, err := isa.Assemble(c.name, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		heads := markPollLoops(prog)
		if heads[0] != c.want {
			t.Errorf("%s: head marked %v, want %v", c.name, heads[0], c.want)
		}
		for pc := 1; pc < len(heads); pc++ {
			if heads[pc] {
				t.Errorf("%s: pc %d marked", c.name, pc)
			}
		}
	}
	// A loop cut off by the end of the program is not a poll loop.
	truncated := &isa.Program{Name: "truncated", Code: []isa.Instr{
		{Op: isa.OpRxPop, Rd: 0}, {Op: isa.OpImm, Rd: 1, Imm: -1},
	}}
	if heads := markPollLoops(truncated); heads[0] {
		t.Error("truncated loop marked")
	}
	// Every shipped program's poll loop is marked.
	for _, bench := range workload.All {
		progs, err := workload.Programs(bench, workload.DefaultParams(), 6, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			n := 0
			for _, h := range markPollLoops(p) {
				if h {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s ME%d: %d poll loops marked, want 1", bench, i, n)
			}
		}
	}
}
