"""The package's public names, and its silence on the standard streams."""

import stpsweep
from stpsweep import (
    SweepConfig,
    check_equivalence,
    exhaustive_window_sim,
    gen_random_patterns,
    simulate_all,
    simulate_specified,
    sweep,
)
from helpers import adder_miter


def test_every_exported_name_resolves_and_is_public():
    names = stpsweep.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert not name.startswith("_"), name
        assert hasattr(stpsweep, name), name


def test_the_library_never_prints(capsys):
    # The library answers through its return values; the standard
    # streams belong to its caller, and only the CLI writes to them.
    net = adder_miter(8)
    before = net.clone()
    patterns = gen_random_patterns(len(net.pis), 256, 1)
    drivers = [driver for driver, _ in net.pos]
    simulate_all(net, patterns)
    simulate_specified(net, patterns, drivers)
    exhaustive_window_sim(net, drivers)
    swept, _ = sweep(net, SweepConfig())
    assert check_equivalence(before, swept).equivalent
    assert capsys.readouterr() == ("", "")
