import random

import pytest

import workloads as W
from stpsweep.cec import check_equivalence
from stpsweep.netlist import parse_blif


def _texts(seed):
    source, _ = W.adder_source(random.Random(seed))
    return [
        source.to_blif(),
        W.deep_chain(random.Random(seed)).to_blif(),
        W.random_network(random.Random(seed), 8, 60, max_k=6, po_count=4,
                         fresh_bias=0.6).to_blif(),
    ]


def test_same_seed_same_text():
    assert _texts(3) == _texts(3)


def test_seed_changes_each_input():
    a, b = _texts(3), _texts(4)
    assert a[0] != b[0] and a[2] != b[2]
    # deep_chain has only 4 AND polarities, so compare a few seeds.
    assert len({W.deep_chain(random.Random(s)).to_blif() for s in range(5)}) > 1


def test_adders_add_under_any_polarity_mask():
    for seed in range(3):
        rng = random.Random(seed)
        source, mask = W.adder_source(rng)
        assert mask
        W.check_adders(source, mask, rng)


def test_adder_check_catches_a_wrong_gate():
    rng = random.Random(1)
    source, mask = W.adder_source(rng)
    name, fanins, tt = source.gates[-1]
    source.gates[-1] = (name, fanins, tt ^ 1)
    with pytest.raises(W.InputError):
        W.check_adders(source, mask, rng)


def test_mapped_adder_is_equivalent_and_at_most_6_inputs():
    source, _ = W.adder_source(random.Random(2), width=8)
    mapped = W.map_to_luts(source.to_blif())
    assert max(len(f) for _, f, _ in mapped.gates) <= 6
    assert mapped.n_luts() < source.n_luts()
    assert check_equivalence(parse_blif(mapped.to_blif()),
                             parse_blif(source.to_blif())).equivalent


def test_deep_chain_is_an_and_under_inverters():
    c = W.deep_chain(random.Random(1), length=5)
    assert [len(f) for _, f, _ in c.gates] == [2, 1, 1, 1, 1, 1]
    net = parse_blif(c.to_blif())
    assert net.n_luts() == 6 and net.level() == 6


def test_sim_bulk_seed_flips_polarities_only():
    a, b = W.sim_bulk(random.Random(3)), W.sim_bulk(random.Random(4))
    assert a.n_luts() == W.BULK_LUTS
    assert [(n, f) for n, f, _ in a.gates] == [(n, f) for n, f, _ in b.gates]
    assert a.to_blif() != b.to_blif()
