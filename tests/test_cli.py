"""End-to-end runs of the command-line front end."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stpsweep.cli as cli
from stpsweep import Network, SweepConfig, SweepStats, parse_blif, write_blif
from stpsweep.cli import main
from helpers import adder_miter, random_network, sweep_fixture
from test_simulator import PATTERN_BLOCK, two_target_example

AND_BLIF = ".model a\n.inputs x y\n.outputs o\n.names x y o\n11 1\n.end\n"
OR_BLIF = ".model b\n.inputs x y\n.outputs o\n.names x y o\n11 1\n01 1\n10 1\n.end\n"
#: o = ~AND(g, ~g) with g = AND(a, ~b) in ASCII AIGER: the constant 1.
CHAIN_AAG = "aag 5 3 0 1 2\n2\n4\n6\n11\n8 2 5\n10 8 9\n"


@pytest.fixture
def example_files(tmp_path):
    net, _ = two_target_example()
    net_path = tmp_path / "example.blif"
    net_path.write_text(write_blif(net))
    pat_path = tmp_path / "patterns.txt"
    pat_path.write_text(PATTERN_BLOCK)
    return net_path, pat_path


class TestSim:
    def test_targets_mode_support_exhaustive(self, example_files, capsys):
        net_path, pat_path = example_files
        rc = main([
            "sim", str(net_path), "--pattern-file", str(pat_path),
            "--targets", "7,8", "--mode", "targets",
        ])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].split("\t") == ["7", "1110"]
        assert out[1].split("\t") == ["8", "11110001"]

    def test_mode_all_inverter_chain(self, tmp_path, capsys):
        text = (".model chain\n.inputs a\n.outputs y2\n"
                ".names a y1\n0 1\n.names y1 y2\n0 1\n.end\n")
        p = tmp_path / "chain.blif"
        p.write_text(text)
        rc = main(["sim", str(p), "--patterns", "8", "--seed", "5"])
        assert rc == 0
        lines = dict(
            ln.split("\t") for ln in capsys.readouterr().out.strip().splitlines()
        )
        flip = str.maketrans("01", "10")
        assert lines["y1"] == lines["a"].translate(flip)
        assert lines["y2"] == lines["a"]

    def test_targets_mode_deep_chain(self, tmp_path, capsys):
        # An AND of a and b under 10**4 inverters.
        depth = 10 ** 4
        lines = [".model chain", ".inputs a b", ".outputs y", ".names a b n0", "11 1"]
        for i in range(depth):
            out = "y" if i == depth - 1 else f"n{i + 1}"
            lines += [f".names n{i} {out}", "0 1"]
        p = tmp_path / "chain.blif"
        p.write_text("\n".join(lines + [".end"]) + "\n")
        rc = main(["sim", str(p), "--mode", "targets", "--targets", "y"])
        assert rc == 0
        assert capsys.readouterr().out == "y\t0001\n"

    def test_targets_over_the_window_cap_print_pattern_signatures(self, tmp_path, capsys):
        # ``small`` reads 2 PIs and ``wide`` 16; together they read 17.
        net = Network("wide")
        pis = [net.add_pi(f"x{i}") for i in range(17)]
        net.add_po(net.add_lut(pis[:2], 0b1000), name="small")
        acc = pis[1]
        for pi in pis[2:]:
            acc = net.add_lut([acc, pi], 0b0110)
        net.add_po(acc, name="wide")
        p = tmp_path / "wide.blif"
        p.write_text(write_blif(net))
        assert main(["sim", str(p), "--patterns", "64", "--seed", "3"]) == 0
        every = dict(ln.split("\t") for ln in capsys.readouterr().out.splitlines())
        assert main(["sim", str(p), "--patterns", "64", "--seed", "3",
                     "--mode", "targets", "--targets", "small,wide"]) == 0
        assert capsys.readouterr().out == f"small\t{every['small']}\nwide\t{every['wide']}\n"
        # Alone, ``small`` fits the window and prints its 4-row truth table.
        assert main(["sim", str(p), "--patterns", "64", "--mode", "targets",
                     "--targets", "small"]) == 0
        assert capsys.readouterr().out == "small\t0001\n"

    @pytest.mark.parametrize("targets", [None, ",", ",,"])
    def test_targets_mode_without_targets_is_a_usage_error(self, example_files, targets, capsys):
        net_path, _ = example_files
        argv = ["sim", str(net_path), "--mode", "targets"]
        assert main(argv + (["--targets", targets] if targets else [])) == 2
        assert capsys.readouterr().err == "sim: --mode targets requires --targets\n"

    def test_same_seed_same_output(self, example_files, capsys):
        net_path, _ = example_files
        main(["sim", str(net_path), "--patterns", "32", "--seed", "9"])
        first = capsys.readouterr().out
        main(["sim", str(net_path), "--patterns", "32", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.blif"
        p.write_text(".model x\n.names a y\nzz 1\n.end\n")
        assert main(["sim", str(p)]) == 3

    def test_missing_file(self, capsys):
        assert main(["sim", "/nonexistent/net.blif"]) == 3

    def test_empty_pattern_file_is_an_input_error(self, tmp_path, capsys):
        # A network with no PIs expects no pattern lines, so an empty
        # file passes the line count but gives no pattern count.
        net_path = tmp_path / "z.blif"
        net_path.write_text(".model z\n.inputs\n.outputs y\n.names y\n1\n.end\n")
        pat_path = tmp_path / "empty.pat"
        pat_path.write_text("")
        assert main(["sim", str(net_path), "--pattern-file", str(pat_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_negative_pattern_count_is_an_input_error(self, tmp_path, capsys):
        p = tmp_path / "and.blif"
        p.write_text(AND_BLIF)
        assert main(["sim", str(p), "--patterns", "-3"]) == 3
        assert capsys.readouterr().err == "error: need at least one pattern\n"

    def test_nodes_are_labelled_by_their_own_names(self, tmp_path, capsys):
        # Outputs z and w only rename x and g: parse_blif registers them
        # as aliases of the nodes they copy.
        p = tmp_path / "alias.blif"
        p.write_text(".model alias\n.inputs x y\n.outputs z w\n.names x y g\n11 1\n"
                     ".names x z\n0 0\n.names g w\n0 0\n.end\n")
        assert main(["sim", str(p), "--patterns", "8"]) == 0
        labels = [ln.split("\t")[0] for ln in capsys.readouterr().out.splitlines()]
        assert labels == ["x", "y", "g"]
        assert main(["sim", str(p), "--patterns", "8", "--mode", "targets",
                     "--targets", "x,z"]) == 0
        labels = [ln.split("\t")[0] for ln in capsys.readouterr().out.splitlines()]
        assert labels == ["x", "x"]


class TestSweepCmd:
    def test_fixture_reduces_and_verifies(self, tmp_path, capsys):
        net = sweep_fixture(42)
        src = tmp_path / "in.blif"
        dst = tmp_path / "out.blif"
        src.write_text(write_blif(net))
        rc = main(["sweep", str(src), str(dst), "--base-patterns", "64", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        header_idx = out.index("gate,result,sat_calls,total_sat_calls,sim_time_s,total_time_s")
        row = out[header_idx + 1].split(",")
        gate, result = int(row[0]), int(row[1])
        assert result < gate
        assert main(["cec", str(src), str(dst)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "equivalent"

    @pytest.mark.parametrize("make", [lambda: sweep_fixture(42), lambda: adder_miter(4)],
                             ids=["fixture", "adder_miter"])
    def test_outputs_keep_their_names(self, make, tmp_path, capsys):
        # Merges move PO drivers, and in the adder miter every sum of one
        # adder ends up on the other's driver.
        src = tmp_path / "in.blif"
        dst = tmp_path / "out.blif"
        src.write_text(write_blif(make()))
        assert main(["sweep", str(src), str(dst), "--base-patterns", "64"]) == 0

        def outputs(path):
            return next(ln for ln in path.read_text().splitlines() if ln.startswith(".outputs"))

        assert outputs(dst) == outputs(src)
        assert parse_blif(dst.read_text()).po_names == parse_blif(src.read_text()).po_names

    def test_irredundant_net(self, tmp_path, capsys):
        src = tmp_path / "in.blif"
        dst = tmp_path / "out.blif"
        src.write_text(AND_BLIF)
        rc = main(["sweep", str(src), str(dst)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        row = out[out.index("gate,result,sat_calls,total_sat_calls,sim_time_s,total_time_s") + 1]
        gate, result = row.split(",")[:2]
        assert gate == result == "1"

    def test_no_flags_give_the_default_config(self, tmp_path, monkeypatch, capsys):
        configs = []

        def recording(net, cfg):
            configs.append(cfg)
            return net, SweepStats()

        monkeypatch.setattr(cli, "sweep", recording)
        src = tmp_path / "in.blif"
        src.write_text(AND_BLIF)
        assert main(["sweep", str(src), str(tmp_path / "out.blif")]) == 0
        assert configs == [SweepConfig()]

    def test_closed_stdout_is_no_input_error(self, tmp_path, capsys):
        # ``stpsweep sweep in out | head -1``, with the reader gone before
        # the child writes: the BLIF is whole, and the exit status is that
        # of a SIGPIPE kill, with nothing on stderr.
        src = tmp_path / "in.blif"
        src.write_text(write_blif(sweep_fixture(42)))
        assert main(["sweep", str(src), str(tmp_path / "out.blif")]) == 0
        package_root = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "stpsweep.cli", "sweep", str(src),
                 str(tmp_path / "piped.blif")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (141, b"")
        assert (tmp_path / "piped.blif").read_bytes() == (tmp_path / "out.blif").read_bytes()

    def test_negative_conflict_limit_is_an_input_error(self, tmp_path, capsys):
        src = tmp_path / "in.blif"
        dst = tmp_path / "out.blif"
        src.write_text(AND_BLIF)
        assert main(["sweep", str(src), str(dst), "--conflict-limit", "-3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not dst.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_base_pattern_count_below_one_is_an_input_error(self, count, tmp_path, capsys):
        src = tmp_path / "in.blif"
        dst = tmp_path / "out.blif"
        src.write_text(AND_BLIF)
        assert main(["sweep", str(src), str(dst), "--base-patterns", count]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_base_patterns must be >= 1\n"
        assert not dst.exists()


class TestCecCmd:
    def test_equivalent(self, tmp_path, capsys):
        a = tmp_path / "a.blif"
        a.write_text(AND_BLIF)
        assert main(["cec", str(a), str(a)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_inequivalent_with_ce(self, tmp_path, capsys):
        a = tmp_path / "a.blif"
        b = tmp_path / "b.blif"
        a.write_text(AND_BLIF)
        b.write_text(OR_BLIF)
        assert main(["cec", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "inequivalent" in out and "counterexample" in out

    def test_interface_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.blif"
        b = tmp_path / "b.blif"
        a.write_text(AND_BLIF)
        b.write_text(".model c\n.inputs x\n.outputs o\n.names x o\n1 1\n.end\n")
        assert main(["cec", str(a), str(b)]) == 3


class TestProveCmd:
    def test_implication_identity(self, capsys):
        assert main(["prove", "a->b", "~a|b"]) == 0
        assert capsys.readouterr().out.strip() == "proved"

    def test_refuted_with_assignment(self, capsys):
        # The first assignment, counting up from all-zeros, where the
        # two sides differ.
        for a, b, line in [("a&b", "a|b", "refuted at a=0 b=1"),
                           ("(a<->~b)&(b<->~c)", "c&~a", "refuted at a=0 b=0 c=1")]:
            assert main(["prove", a, b]) == 1
            assert capsys.readouterr().out == line + "\n"

    def test_reflexive(self, capsys):
        assert main(["prove", "a", "a"]) == 0

    def test_parse_error(self, capsys):
        assert main(["prove", "a&", "a"]) == 3

    @pytest.mark.parametrize("expr", ["&".join(["a"] * 3000), "~" * 3000 + "a",
                                      "(" * 3000 + "a" + ")" * 3000],
                             ids=["and_chain", "negations", "parentheses"])
    def test_deep_input_is_proved(self, expr, capsys):
        # Each input is a true identity nested 3,000 deep, past the
        # interpreter's default recursion limit.
        assert main(["prove", expr, "a"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "proved\n"
        assert captured.err == ""


class TestStatsCmd:
    def test_reports_counts(self, tmp_path, capsys):
        net, _ = two_target_example()
        p = tmp_path / "n.blif"
        p.write_text(write_blif(net))
        assert main(["stats", str(p)]) == 0
        out = dict(
            ln.split("=") for ln in capsys.readouterr().out.strip().splitlines()
        )
        assert out["pis"] == "5"
        assert out["pos"] == "2"
        assert out["luts"] == "6"
        assert out["levels"] == "3"
        assert out["arities"] == "2:6"
        assert out["max_fanout"] == "2"

    def test_arity_histogram_and_max_fanout(self, tmp_path, capsys):
        # t reads a twice, and three LUTs read t: a fanout counts fanin
        # slots, so a's is 2 and t's 3.
        p = tmp_path / "m.blif"
        p.write_text(".model m\n.inputs a b c\n.outputs y k u v\n"
                     ".names a a b t\n111 1\n.names t c y\n11 1\n.names k\n1\n"
                     ".names t u\n1 1\n.names t v\n0 1\n.end\n")
        assert main(["stats", str(p)]) == 0
        assert capsys.readouterr().out == (
            "name=m\npis=3\npos=4\nluts=5\nlevels=2\n"
            "arities=0:1,1:2,2:1,3:1\nmax_fanout=3\n")


class TestAigerInput:
    def test_stats_sweep_and_cec(self, tmp_path, capsys):
        src = tmp_path / "t.aag"
        dst = tmp_path / "t_out.blif"
        src.write_text(CHAIN_AAG)
        assert main(["stats", str(src)]) == 0
        assert "pis=3" in capsys.readouterr().out.splitlines()
        assert main(["sweep", str(src), str(dst)]) == 0
        assert parse_blif(dst.read_text()).pi_names == ["i0", "i1", "i2"]
        capsys.readouterr()
        assert main(["cec", str(src), str(dst)]) == 0
        assert capsys.readouterr().out == "equivalent\n"


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sim", "x.blif", "--bogus"])
        assert exc.value.code == 2
