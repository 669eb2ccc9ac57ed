"""Semi-tensor-product based k-LUT simulation and SAT sweeping."""

from .bexpr import (
    BinOp,
    ExprSyntaxError,
    Lut,
    Not,
    Var,
    canonical_form,
    eval_expr,
    parse_expr,
)
from .cec import CecResult, InterfaceMismatch, check_equivalence
from .netlist import (
    CycleError,
    LutNode,
    NetlistError,
    Network,
    WindowTooLarge,
    flip_tt_input,
    parse_aiger_ascii,
    parse_blif,
    strash,
    write_blif,
)
from .sat import NetSolver, SatOutcome, SatStatus, Solver, prove_equiv, solve
from .simulate import (
    PatternSet,
    Signature,
    WindowTruths,
    exhaustive_window_sim,
    gen_random_patterns,
    parse_patterns,
    simulate_all,
    simulate_specified,
)
from .stp import MAX_ARITY, LogicMatrix
from .sweep import SweepConfig, SweepStats, sweep

__version__ = "0.1.0"

__all__ = [
    "BinOp", "CecResult", "CycleError",
    "ExprSyntaxError", "InterfaceMismatch", "LogicMatrix", "Lut", "LutNode",
    "MAX_ARITY", "NetSolver", "NetlistError", "Network", "Not", "PatternSet", "SatOutcome",
    "SatStatus", "Signature", "Solver", "SweepConfig", "SweepStats", "Var",
    "WindowTooLarge", "WindowTruths", "canonical_form",
    "check_equivalence", "eval_expr",
    "exhaustive_window_sim", "flip_tt_input", "gen_random_patterns",
    "parse_aiger_ascii", "parse_blif",
    "parse_expr", "parse_patterns", "prove_equiv",
    "simulate_all", "simulate_specified", "solve", "strash",
    "sweep", "write_blif",
]
