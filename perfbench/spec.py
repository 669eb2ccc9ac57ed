"""Workloads and metrics of the benchmark, and the BENCHMARK.json made from them.

    python3 perfbench/spec.py > BENCHMARK.json
"""

from __future__ import annotations

import json

from tracer import LABELS

RUN_SECONDS = 35

#: name -> why it was chosen (one line each).
WORKLOADS = {
    "adder_miter": "self-miter of ripple-carry and Kogge-Stone 32-bit adders mapped to 6-LUTs: "
                   "most queries are UNSAT and merge, so the sat layer does most of the work",
    "deep_chain": "an AND under 300 inverters: the sweep loop's netlist walks, superlinear in "
                  "depth, dominate and simulation is almost free",
    "sim_bulk": "random 8000-LUT 6-input net, simulate_all vs simulate_specified at 2048 and "
                "65536 patterns, no sweep: the paper's simulation claim, and SAT does nothing",
}

#: name -> (unit, bound).  Lower is better for every one of them.
END_TO_END = {
    "setup_s": ("s", 0.25),
    "op_s": ("s", 0.25),
    "check_s": ("s", 0.25),
    "final_luts": ("count", 0.02),
    "peak_rss_mb": ("MB", 0.1),
}

SWEEP_COUNTS = ("sweep.sat_calls", "sweep.total_sat_calls", "sweep.undet_calls",
                "sweep.merges", "sweep.constants", "sweep.ce_refinements")


def _per_layer() -> dict[str, tuple[str, str]]:
    out = {}
    for label in LABELS:
        out[f"{label}_s"] = ("s", "lower")
        out[f"{label}_calls"] = ("count", "lower")
    out.update({name: ("count", "lower") for name in SWEEP_COUNTS})
    out["sweep.merges"] = ("count", "higher")
    out["sweep.constants"] = ("count", "higher")
    out["sweep.merge_yield"] = ("ratio", "higher")
    out["simulate.luts_per_cut"] = ("LUT/cut", "higher")
    out["sat.cnf_clauses"] = ("count", "lower")
    out["sat.outcome_sat"] = ("count", "lower")
    out["sat.outcome_unsat"] = ("count", "lower")
    out["sat.outcome_undet"] = ("count", "lower")
    out["sat.undet_share"] = ("ratio", "lower")
    out["trace.coverage"] = ("ratio", "higher")
    out["trace.overhead_s"] = ("s", "lower")
    return out


#: name -> (unit, better).
PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, (u, b) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
