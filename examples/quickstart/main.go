// Quickstart: compile a small hard real-time task from mini-C, bound it
// with the static WCET analyzer, solve the VISA frequency-speculation plan,
// and execute it under checkpoint protection on the complex processor —
// the whole VISA pipeline in one file.
package main

import (
	"fmt"
	"log"

	"visa/internal/cache"
	"visa/internal/core"
	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/minic"
	"visa/internal/ooo"
	"visa/internal/rt"
	"visa/internal/wcet"
)

// A small control task: a PI-style controller update over a sensor window,
// divided into three sub-tasks with __subtask markers.
const taskSrc = `
int window[64];
int setpoint = 500;
int integral;
int out;
int seed = 42;

void main() {
	int i;
	int acc;

	__subtask(0);                 // acquire: synthesize a sensor window
	for (i = 0; i < 64; i = i + 1) {
		seed = seed * 1103515245 + 12345;
		window[i] = ((seed >> 16) & 1023);
	}

	__subtask(1);                 // filter: windowed average
	acc = 0;
	for (i = 0; i < 64; i = i + 1) {
		acc = acc + window[i];
	}
	acc = acc / 64;

	__subtask(2);                 // control: PI update with clamping
	integral = integral + (setpoint - acc);
	if (integral > 10000) { integral = 10000; }
	if (integral < -10000) { integral = -10000; }
	out = 2 * (setpoint - acc) + integral / 8;
	__out(out);
}
`

func main() {
	// 1. Compile.
	prog, err := minic.Compile("controller.c", taskSrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d instructions, %d sub-tasks\n", len(prog.Code), prog.NumSubTasks())

	// 2. Static WCET analysis of the VISA (the hypothetical simple
	// pipeline), per sub-task, at every DVS operating point, padded with
	// the D-cache misses of a cold run as the harness does.
	an, err := wcet.New(prog)
	if err != nil {
		log.Fatal(err)
	}
	setup, err := rt.NewSetup(an)
	if err != nil {
		log.Fatal(err)
	}
	table := setup.Table
	wcet1G := table.TotalTimeNs(len(table.Points) - 1)
	fmt.Printf("WCET on the VISA @1GHz: %.1f us\n", wcet1G/1000)

	// 3. A deadline with 60% head-room over WCET, and a first plan seeded
	// with WCET-sized PETs.
	deadline := wcet1G * 1.6
	params := core.Params{DeadlineNs: deadline, OvhdNs: 1500}
	pets := make([]float64, table.NumSubTasks())
	last := len(table.Points) - 1
	for k := range pets {
		pets[k] = float64(table.Cycles[last][k])
	}
	plan, ok := core.Solve(core.SpecVISA, params, table, pets)
	if !ok {
		log.Fatal("no feasible plan")
	}
	fmt.Printf("plan: run at %d MHz / %.2f V, recover at %d MHz (deadline %.1f us)\n",
		plan.Spec.FMHz, plan.Spec.Volts, plan.Rec.FMHz, deadline/1000)
	for i, cp := range plan.CheckpointsNs {
		fmt.Printf("  checkpoint %d at %.1f us\n", i, cp/1000)
	}

	// 4. Execute on the complex out-of-order core with the watchdog armed.
	ic, dc := cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1)
	bus := memsys.NewBus(memsys.Default, plan.Spec.FMHz)
	cx := ooo.New(ooo.Config{}, ic, dc, bus)
	m := exec.New(prog)

	var wd core.Watchdog
	wd.Arm(plan.WatchdogInit)
	for {
		d, ok, err := m.Step()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		if d.Inst.Op == isa.MARK {
			if k := int(d.Inst.Imm); k >= 1 {
				wd.Add(cx.Now(), plan.WatchdogAdd[k])
			}
		}
		retired := cx.Feed(&d)
		if wd.Expired(retired) {
			start := cx.SwitchToSimple(retired)
			wd.Disarm()
			fmt.Printf("checkpoint missed at cycle %d: switched to simple mode at cycle %d\n", retired, start)
		}
	}
	timeNs := float64(cx.Now()) * 1000 / float64(plan.Spec.FMHz)
	fmt.Printf("task finished in %.1f us (deadline %.1f us, slack %.1f us), output %v\n",
		timeNs/1000, deadline/1000, (deadline-timeNs)/1000, m.Out)
	if timeNs > deadline {
		log.Fatal("DEADLINE MISSED — this must never happen")
	}
	fmt.Println("deadline met on an unanalyzable out-of-order core, at a fraction of the safe frequency.")
}
