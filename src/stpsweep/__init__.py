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
    flip_tt_input,
    parse_aiger_ascii,
    parse_blif,
    write_blif,
)
from .sat import NetSolver, SatOutcome, SatStatus, Solver, prove_equiv, solve
from .simulate import (
    Cut,
    CutSet,
    PatternSet,
    Signature,
    WindowTooLarge,
    WindowTruths,
    circuit_cut,
    cut_truth_tables,
    eval_tt_words,
    exhaustive_window_sim,
    gen_random_patterns,
    parse_patterns,
    simulate_all,
    simulate_specified,
)
from .stp import MAX_ARITY, LogicMatrix, structural_matrix
from .sweep import (
    ClassManager,
    SweepConfig,
    SweepStats,
    constant_prop,
    init_equiv_classes,
    refine_classes,
    sat_guided_patterns,
    sweep,
    toggle_rate,
)

__version__ = "0.1.0"

__all__ = [
    "BinOp", "CecResult", "ClassManager", "Cut", "CutSet", "CycleError",
    "ExprSyntaxError", "InterfaceMismatch", "LogicMatrix", "Lut", "LutNode",
    "MAX_ARITY", "NetSolver", "NetlistError", "Network", "Not", "PatternSet", "SatOutcome",
    "SatStatus", "Signature", "Solver", "SweepConfig", "SweepStats", "Var",
    "WindowTooLarge", "WindowTruths", "canonical_form",
    "check_equivalence", "circuit_cut", "constant_prop", "cut_truth_tables",
    "eval_expr", "eval_tt_words",
    "exhaustive_window_sim", "flip_tt_input", "gen_random_patterns",
    "init_equiv_classes", "parse_aiger_ascii", "parse_blif",
    "parse_expr", "parse_patterns", "prove_equiv", "refine_classes",
    "sat_guided_patterns", "simulate_all", "simulate_specified", "solve",
    "structural_matrix", "sweep", "toggle_rate", "write_blif",
]
