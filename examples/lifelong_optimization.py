"""The lifelong loop of paper Figure 4 / sections 3.5-3.6.

One program goes through the full lifecycle: static compile + link-time
IPO, end-user runs whose block entries the execution engine counts,
profile accumulation, and an offline (idle-time) reoptimization that
inlines hot paths and forms superblock traces for biased hot loops —
then the bytecode it ships runs again, faster, with identical output.

Run:  python examples/lifelong_optimization.py
"""

from repro.bitcode import read_bytecode
from repro.driver import LifelongSession
from repro.execution import Interpreter

#: An interpreter-shaped workload: a hot dispatch loop with one very
#: biased branch — exactly what trace formation wants.
PROGRAM = r"""
extern int print_int(int x);

static uint seed = 42;
static uint next_random() {
  seed = seed ^ (seed << 13);
  seed = seed ^ (seed >> 17);
  seed = seed ^ (seed << 5);
  return seed;
}

static int memory[256];

static int step_vm(int pc, int op) {
  if (op < 90) {                       // the hot path: 90% of ops
    memory[pc & 255] = memory[pc & 255] + op;
    return pc + 1;
  }
  if (op < 95) {                       // occasional backward jump
    return pc - (op - 89);
  }
  memory[(pc + op) & 255] = 0;         // rare clear
  return pc + 2;
}

int main() {
  int pc = 0;
  int executed = 0;
  while (executed < 20000) {
    int op = (int)(next_random() % 100);
    pc = step_vm(pc, op);
    if (pc < 0) { pc = 0; }
    executed = executed + 1;
  }
  int check = 0;
  int i;
  for (i = 0; i < 256; i++) {
    check = (check * 31 + memory[i]) % 1000003;
  }
  print_int(check);
  return check % 251;
}
"""


def run_shipped(bytecode: bytes) -> tuple:
    """(exit, output, steps) of the bytecode under a plain interpreter."""
    interp = Interpreter(read_bytecode(bytecode))
    value = interp.run("main")
    return value, "".join(interp.output), interp.steps


def main() -> None:
    print("=== static compile + link-time IPO ===")
    session = LifelongSession([PROGRAM], "vm")
    print(f"bytecode shipped with the executable: {len(session.bytecode)} bytes")

    print()
    print("=== end-user runs (profiled by the execution engine) ===")
    baseline = run_shipped(session.bytecode)
    print(f"static build: exit={baseline[0]}, {baseline[2]} steps")
    for run in range(3):
        result = session.run()
        print(f"profiled run {run + 1}: exit={result.exit_value}, "
              f"{result.steps} steps")
    hot_loops = session.profile.hot_loops(threshold=1000)
    print("hot loops observed:",
          [(fn, header.name, count) for fn, header, count in hot_loops[:3]])

    print()
    print("=== idle-time reoptimization ===")
    report = session.reoptimize(hot_call_threshold=2, hot_loop_threshold=500)
    print(f"hot functions: {report.hot_functions}")
    print(f"calls inlined: {report.inlined_calls}, "
          f"traces formed: {report.traces_formed}, "
          f"blocks re-laid-out: {report.blocks_reordered}")

    print()
    print("=== the next run, of the shipped bytecode ===")
    after = run_shipped(session.bytecode)
    print(f"reoptimized: exit={after[0]}, {after[2]} steps")
    assert after[:2] == baseline[:2]
    saved = 1 - after[2] / baseline[2]
    print(f"identical output, {saved:.1%} fewer interpreter steps")
    print(f"updated bytecode ({len(session.bytecode)} bytes) replaces the "
          "shipped copy, ready for the next cycle")


if __name__ == "__main__":
    main()
