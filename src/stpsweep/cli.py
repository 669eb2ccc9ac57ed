"""Command-line front end.

Subcommands: ``sim`` (signature dumps), ``sweep`` (equivalence-driven
network reduction), ``cec`` (combinational equivalence check),
``prove`` (logic-identity proof on expressions), ``stats`` (network
summary).  Exit codes: 0 success / equivalent / proved, 1 inequivalent
or refuted, 2 usage error, 3 input error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .bexpr import BinOp, ExprSyntaxError, canonical_form, parse_expr, scan_names
from .cec import InterfaceMismatch, check_equivalence
from .netlist import Network, NetlistError, parse_aiger_ascii, parse_blif, write_blif
from .simulate import (
    WINDOW_CAP,
    Signature,
    WindowTooLarge,
    exhaustive_window_sim,
    gen_random_patterns,
    parse_patterns,
    simulate_all,
    simulate_specified,
)
from .sweep import SweepConfig, SweepStats, sweep

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_USAGE = 2
EXIT_INPUT = 3


def load_network(path: str) -> Network:
    text = Path(path).read_text()
    head = text.lstrip()
    if head.startswith("aag"):
        return parse_aiger_ascii(text)
    return parse_blif(text)


def _labeler(net: Network):
    """A node's label: the first name it was defined under, else its id."""
    by_id = net.first_names()
    return lambda nid: by_id.get(nid, str(nid))


def cmd_sim(args: argparse.Namespace) -> int:
    net = load_network(args.input)
    label = _labeler(net)
    if args.pattern_file:
        patterns = parse_patterns(Path(args.pattern_file).read_text(), len(net.pis))
    else:
        patterns = gen_random_patterns(len(net.pis), args.patterns, args.seed)

    if args.mode == "all":
        for nid, sig in simulate_all(net, patterns).items():
            print(f"{label(nid)}\t{sig.to_string()}")
        return EXIT_OK

    targets = [net.resolve(tok) for tok in (args.targets or "").split(",") if tok]
    if not targets:
        print("sim: --mode targets requires --targets", file=sys.stderr)
        return EXIT_USAGE
    # A target prints its truth row over its own support (its one-target
    # window) when that row is shorter than the pattern signature, unless
    # the targets' supports together exceed the window cap.
    try:
        net.cone(targets, WINDOW_CAP)
        windows = {t: exhaustive_window_sim(net, [t]) for t in targets}
    except WindowTooLarge:
        windows = {}
    sigs = {t: Signature(w.window_rows[t], 1 << len(w.leaves))
            for t, w in windows.items() if 1 << len(w.leaves) < patterns.n_patterns}
    sigs.update(simulate_specified(net, patterns, [t for t in targets if t not in sigs]))
    for t in targets:
        print(f"{label(t)}\t{sigs[t].to_string()}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    net = load_network(args.input)
    cfg = SweepConfig(
        conflict_limit=args.conflict_limit,
        n_base_patterns=args.base_patterns,
        seed=args.seed,
    )
    net, stats = sweep(net, cfg)
    Path(args.output).write_text(write_blif(net))
    print(stats.as_kv())
    print(SweepStats.CSV_HEADER)
    print(stats.as_csv_row())
    return EXIT_OK


def cmd_cec(args: argparse.Namespace) -> int:
    net_a = load_network(args.a)
    net_b = load_network(args.b)
    result = check_equivalence(net_a, net_b)
    if result.equivalent:
        print("equivalent")
        return EXIT_OK
    print(f"inequivalent at output {result.output}")
    assignment = " ".join(f"{k}={int(v)}" for k, v in sorted(result.counterexample.items()))
    print(f"counterexample: {assignment}")
    return EXIT_DIFFER


def cmd_prove(args: argparse.Namespace) -> int:
    names = sorted(scan_names(args.expr_a) | scan_names(args.expr_b))
    var_index = {name: i + 1 for i, name in enumerate(names)}
    expr_a, _ = parse_expr(args.expr_a, var_index)
    expr_b, _ = parse_expr(args.expr_b, var_index)
    n = len(names)
    # The assignments where the two sides differ: the zeros of ``a <-> b``.
    diff = canonical_form(BinOp("iff", expr_a, expr_b), n).complement().row
    if not diff:
        print("proved")
        return EXIT_OK
    v = (diff & -diff).bit_length() - 1
    assignment = " ".join(
        f"{name}={(v >> (n - 1 - j)) & 1}" for j, name in enumerate(names)
    )
    print(f"refuted at {assignment}")
    return EXIT_DIFFER


def cmd_stats(args: argparse.Namespace) -> int:
    net = load_network(args.input)
    print(f"name={net.name}")
    print(f"pis={len(net.pis)}")
    print(f"pos={len(net.pos)}")
    print(f"luts={net.n_luts()}")
    print(f"levels={net.level()}")
    arities = Counter(node.arity for node in net.nodes if not node.is_pi)
    print("arities=" + ",".join(f"{k}:{arities[k]}" for k in sorted(arities)))
    print(f"max_fanout={max((len(node.fanouts) for node in net.nodes), default=0)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stpsweep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="simulate a network and dump signatures")
    p_sim.add_argument("input")
    group = p_sim.add_mutually_exclusive_group()
    group.add_argument("--patterns", type=int, default=1024, metavar="N")
    group.add_argument("--pattern-file", metavar="F")
    p_sim.add_argument("--targets", metavar="LIST", help="comma-separated names or ids")
    p_sim.add_argument("--mode", choices=("all", "targets"), default="all")
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.set_defaults(func=cmd_sim)

    p_sweep = sub.add_parser("sweep", help="merge equivalent nodes")
    p_sweep.add_argument("input")
    p_sweep.add_argument("output")
    defaults = SweepConfig()
    p_sweep.add_argument("--conflict-limit", type=int, default=defaults.conflict_limit)
    p_sweep.add_argument("--base-patterns", type=int, default=defaults.n_base_patterns)
    p_sweep.add_argument("--seed", type=int, default=defaults.seed)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cec = sub.add_parser("cec", help="combinational equivalence check")
    p_cec.add_argument("a")
    p_cec.add_argument("b")
    p_cec.set_defaults(func=cmd_cec)

    p_prove = sub.add_parser("prove", help="prove or refute a logic identity")
    p_prove.add_argument("expr_a")
    p_prove.add_argument("expr_b")
    p_prove.set_defaults(func=cmd_prove)

    p_stats = sub.add_parser("stats", help="print network statistics")
    p_stats.add_argument("input")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetlistError, ExprSyntaxError, InterfaceMismatch, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
