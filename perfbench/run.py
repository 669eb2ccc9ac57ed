"""stpsweep benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload adder_miter --seed 1 --seconds 30 --trace 0

Builds the workload's BLIF text from the seed, checks it, then repeats
the workload's cycle of library calls (the ones ``stpsweep sim``, or
``stpsweep sweep`` and ``stpsweep cec``, make) until ``--seconds`` have
passed, checking every output.  The last line of standard output is one
JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a run whose cycles alternate
between untraced and traced.  See README.md in this directory.

Everything runs in this one process and thread, one call after another.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads
from spec import END_TO_END, PER_LAYER, SWEEP_COUNTS, WORKLOADS
from speed import SpeedProbe
from tracer import LABELS, SWEEP_ROOT, Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SWEEP_WORKLOADS = ("adder_miter", "deep_chain")
PATTERN_COUNTS = ((2048, "2k"), (65536, "64k"))
#: A call that leaves its input unchanged (parse, simulation, CEC) is
#: repeated back to back, as one timed call, until REPS_S seconds of
#: thread CPU time or MAX_REPS runs have passed, and the mean per run is
#: kept.  On small networks one run is shorter than the probe's interval;
#: a batch holds enough probe samples to be scaled like a long call.
REPS_S = 0.5
MAX_REPS = 5000
#: Wall-clock budget of one library call, and of the whole run; a call
#: still running at either limit is stopped and counted as failed.
CALL_BUDGET_S = 60.0
RUN_BUDGET_S = 170.0


class BudgetExceeded(BaseException):
    """Raised by the alarm inside a call that overran its budget.

    A BaseException, so no ``except Exception`` in the program can
    swallow it.
    """


def _alarm(signum, frame):
    raise BudgetExceeded()


def load_program():
    """Import ``stpsweep`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    package = src / "stpsweep"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no program at {package}; run from a full checkout")
    sys.path.insert(0, str(src))
    import stpsweep

    if Path(stpsweep.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported stpsweep from {stpsweep.__file__}, not {package}")
    names = ("netlist", "simulate", "sat", "sweep", "cec")
    return argparse.Namespace(
        **{n: importlib.import_module(f"stpsweep.{n}") for n in names})


def make_input(program, workload: str, seed: int) -> str:
    """The workload's BLIF text; raises InputError if it fails its own check."""
    rng = random.Random(seed)
    if workload == "adder_miter":
        source, mask = workloads.adder_source(rng)
        workloads.check_adders(source, mask, rng)
        source_text = source.to_blif()
        text = workloads.map_to_luts(source_text).to_blif()
        parse = program.netlist.parse_blif
        if not program.cec.check_equivalence(parse(text), parse(source_text)).equivalent:
            raise workloads.InputError("mapped adder_miter differs from its 2-input source")
        return text
    if workload == "deep_chain":
        return workloads.deep_chain(rng).to_blif()
    return workloads.sim_bulk(rng).to_blif()


class Runner:
    """Runs library calls, times them and keeps the failure ledger.

    Times are reference seconds from ``probe`` (see speed.py).  While
    ``tracer`` is set, each call runs with every layer wrapped.
    """

    def __init__(self, program, probe: SpeedProbe, deadline: float):
        self.p = program
        self.probe = probe
        self.deadline = deadline
        self.tracer = None
        #: Wall seconds of the last call that returned.
        self.last_wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def call(self, what: str, thunk):
        """(result, seconds) of ``thunk()``; (None, None) if it raised or overran.

        ``thunk`` looks the library function up when it runs, so that it
        finds the wrapper while tracing is on.
        """
        self.attempted += 1
        budget = min(CALL_BUDGET_S, self.deadline - time.monotonic())
        if budget <= 0:
            self.fail(f"{what}: run budget spent")
            return None, None
        with contextlib.ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(instrument(self.tracer))
            signal.setitimer(signal.ITIMER_REAL, budget)
            mark = self.probe.mark()
            t0 = time.perf_counter()
            try:
                result = thunk()
                self.last_wall = time.perf_counter() - t0
                return result, self.probe.reference_time(mark)
            except BudgetExceeded:
                self.fail(f"{what}: over its {budget:.0f} s budget")
            except Exception as exc:  # RecursionError included
                self.fail(f"{what}: {type(exc).__name__}: {exc}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        return None, None

    def repeat(self, what: str, thunk, once: bool):
        """(last result, mean seconds per run) of ``thunk()`` run back to
        back as one call (see REPS_S), or run once if ``once``."""
        runs = 0

        def batch():
            nonlocal runs
            end = time.thread_time() + (0.0 if once else REPS_S)
            while runs == 0 or (runs < MAX_REPS and time.thread_time() < end):
                # Drop the last run's result first, so that the peak memory
                # does not depend on how many runs fit in REPS_S.
                result = None
                result = thunk()
                runs += 1
            return result

        result, dt = self.call(what, batch)
        return (None, None) if result is None else (result, dt / runs)


def sim_passes(r: Runner, net, seed: int, once: bool) -> tuple[dict[str, float], float]:
    """Both simulators at both pattern counts; targets are the PO drivers.

    Returns the metric samples and the wall seconds of the last
    ``simulate_specified`` call at each pattern count, added up.
    """
    sim = r.p.simulate
    targets = list(dict.fromkeys(d for d, _ in net.pos))
    out = {}
    spec_wall = 0.0
    for n, tag in PATTERN_COUNTS:
        patterns = sim.gen_random_patterns(len(net.pis), n, seed)
        full, dt_all = r.repeat(f"simulate_all@{n}",
                                lambda: sim.simulate_all(net, patterns), once)
        spec, dt_spec = r.repeat(f"simulate_specified@{n}",
                                 lambda: sim.simulate_specified(net, patterns, targets), once)
        if full is None or spec is None:
            continue
        spec_wall += r.last_wall
        out[f"sim_all_{tag}_s"] = dt_all
        if any(spec[t].bits != full[t].bits for t in targets):
            r.fail(f"simulate_specified@{n}: differs from simulate_all")
        else:
            out[f"sim_targets_{tag}_s"] = dt_spec
    return out, spec_wall


class Cycle:
    """One pass over the workload's calls: metric samples in reference
    seconds, the operation's wall seconds, and the sweep's stats."""

    def __init__(self):
        self.samples: dict[str, float] = {}
        self.op_wall = 0.0
        self.stats = None


def run_cycle(r: Runner, workload: str, text: str, seed: int, once: bool,
              reference: dict) -> Cycle:
    """Parse, then simulate (sim_bulk) or sweep and CEC-check.

    ``reference`` keeps the first sweep's BLIF, which every later sweep
    of the same input must reproduce.
    """
    cyc = Cycle()
    p = r.p
    net, dt = r.repeat("parse_blif", lambda: p.netlist.parse_blif(text), once)
    if net is None:
        return cyc
    cyc.samples["setup_s"] = dt
    if workload not in SWEEP_WORKLOADS:
        # sim_bulk has no sweep: its operation is the cut pipeline and its
        # check is the plain simulator the pipeline is compared with.
        sims, cyc.op_wall = sim_passes(r, net, seed, once)
        cyc.samples.update(sims)
        if len(sims) == 2 * len(PATTERN_COUNTS):
            cyc.samples["op_s"] = sum(sims[f"sim_targets_{t}_s"] for _, t in PATTERN_COUNTS)
            cyc.samples["check_s"] = sum(sims[f"sim_all_{t}_s"] for _, t in PATTERN_COUNTS)
        cyc.samples["final_luts"] = net.n_luts()
        return cyc

    original, _ = r.call("parse_blif", lambda: p.netlist.parse_blif(text))
    if original is None:
        return cyc
    out, dt_sweep = r.call("sweep", lambda: p.sweep.sweep(net, p.sweep.SweepConfig()))
    if out is None:
        return cyc
    swept, cyc.stats = out
    cyc.op_wall = r.last_wall
    verdict, dt_cec = r.repeat("check_equivalence",
                               lambda: p.cec.check_equivalence(original, swept), once)
    if verdict is None:
        return cyc
    cyc.samples["check_s"] = dt_cec
    problems = check_sweep(p, original, swept, verdict, reference)
    for problem in problems:
        r.fail(f"sweep: {problem}")
    if not problems:
        cyc.samples["op_s"] = dt_sweep
        cyc.samples["final_luts"] = swept.n_luts()
    return cyc


def check_sweep(p, original, swept, verdict, reference: dict) -> list[str]:
    """What is wrong with one sweep result, if anything."""
    problems = []
    if not verdict.equivalent:
        problems.append(f"result differs from its input at output {verdict.output}")
    if swept.n_luts() > original.n_luts():
        problems.append(f"{swept.n_luts()} LUTs out of {original.n_luts()} in")
    blif = p.netlist.write_blif(swept)
    if reference.setdefault("blif", blif) != blif:
        problems.append("same input and seed gave different BLIF")
    return problems


def layer_metrics(tracer, first: int, cyc: Cycle, counts) -> dict[str, float]:
    """Per-layer numbers of one traced cycle, from spans ``first`` on."""
    summary = tracer.summary(first)
    out: dict[str, float] = {}
    for label in LABELS:
        seconds, calls = summary.get(label, (0.0, 0))
        out[f"{label}_s"] = seconds
        out[f"{label}_calls"] = calls
    st = cyc.stats
    if st is None:
        out.update({k: 0 for k in SWEEP_COUNTS})
    else:
        out.update(zip(SWEEP_COUNTS, (st.sat_calls_sat, st.sat_calls_total,
                                      st.sat_calls_undet, st.merges, st.constants,
                                      st.ce_refinements)))
    out["sweep.merge_yield"] = (out["sweep.merges"] / out["sweep.total_sat_calls"]
                                if out["sweep.total_sat_calls"] else 0.0)
    cuts = counts["simulate.cuts"]
    out["simulate.luts_per_cut"] = counts["simulate.cut_members"] / cuts if cuts else 0.0
    out["sat.cnf_clauses"] = counts["sat.cnf_clauses"]
    for s in ("sat", "unsat", "undet"):
        out[f"sat.outcome_{s}"] = counts[f"sat.outcome_{s}"]
    solves = out["sat.outcome_sat"] + out["sat.outcome_unsat"] + out["sat.outcome_undet"]
    out["sat.undet_share"] = out["sat.outcome_undet"] / solves if solves else 0.0
    # Self times of the spans inside the traced operation, as a share of
    # its wall time taken from outside: how much of it the spans explain.
    root = SWEEP_ROOT if st is not None else "simulate.simulate_specified"
    out["trace.coverage"] = (tracer.subtree_self(root, first) / cyc.op_wall
                             if cyc.op_wall else 0.0)
    return out


class Clock:
    """When to stop starting cycles: after at least two, once another one
    would more likely end after ``seconds`` than before."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = time.monotonic()
        self.laps: list[float] = []

    def lap(self) -> None:
        now = time.monotonic()
        self.laps.append(now - self.last)
        self.last = now

    def more(self, done: int) -> bool:
        if done < 2:
            return True
        elapsed = time.monotonic() - self.start
        return elapsed + statistics.median(self.laps) / 2 < self.seconds


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    program = load_program()
    try:
        text = make_input(program, workload, seed)
    except workloads.InputError as exc:
        sys.exit(f"error: {workload} input check failed: {exc}")
    probe = SpeedProbe()
    signal.signal(signal.SIGALRM, _alarm)
    probe.start()
    try:
        r = Runner(program, probe, time.monotonic() + RUN_BUDGET_S)
        metrics = (measure_layers if trace else measure_end_to_end)(
            r, workload, text, seed, seconds)
    finally:
        probe.stop()

    units = {k: u for k, (u, _) in (PER_LAYER if trace else END_TO_END).items()}
    for name, value in metrics.items():
        print(f"{name:36s} {value} {units[name]}")
    print(f"{'fail_share':36s} {r.failed / r.attempted} ({r.failed} of {r.attempted} calls)")
    for what in r.failures:
        print(f"failed: {what}")
    return {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def measure_end_to_end(r: Runner, workload: str, text: str, seed: int,
                       seconds: float) -> dict:
    """Median of every end-to-end metric over the cycles of the run."""
    reference: dict = {}
    cycles: list[Cycle] = []
    clock = Clock(seconds)
    while clock.more(len(cycles)):
        cycles.append(run_cycle(r, workload, text, seed, False, reference))
        clock.lap()
    metrics = {}
    for name in END_TO_END:
        metrics[name] = median_of(c.samples.get(name) for c in cycles)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # sim_bulk's passes one by one, printed but not part of the result.
    for name in sorted({k for c in cycles for k in c.samples} - set(END_TO_END)):
        print(f"{name:36s} {median_of(c.samples.get(name) for c in cycles)} s (detail)")
    return metrics


def measure_layers(r: Runner, workload: str, text: str, seed: int,
                   seconds: float) -> dict:
    """Per-layer metrics: medians over the traced cycles of a run whose
    cycles alternate untraced / traced, each call made once."""
    tracer = Tracer()
    reference: dict = {}
    plain: list[Cycle] = []
    layers: list[dict] = []
    traced_ops: list[float] = []
    clock = Clock(seconds)
    while clock.more(len(plain) + len(layers)):
        if len(plain) == len(layers):
            plain.append(run_cycle(r, workload, text, seed, True, reference))
        else:
            first, before = len(tracer), tracer.counts.copy()
            r.tracer = tracer
            try:
                cyc = run_cycle(r, workload, text, seed, True, reference)
            finally:
                r.tracer = None
            layers.append(layer_metrics(tracer, first, cyc, tracer.counts - before))
            traced_ops.append(cyc.samples.get("op_s"))
        clock.lap()

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}.jsonl.gz"
    tracer.write(span_file)
    print(f"spans: {len(tracer)} written to {span_file.relative_to(ROOT)}")
    metrics = {k: median_of(d[k] for d in layers) for k in layers[0]}
    # Tracing overhead: traced minus untraced operation time, in
    # reference seconds, over the same run.
    untraced = median_of(c.samples.get("op_s") for c in plain)
    traced = median_of(traced_ops)
    metrics["trace.overhead_s"] = (traced - untraced
                                   if None not in (traced, untraced) else None)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
