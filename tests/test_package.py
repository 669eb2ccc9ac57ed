"""The package's public names."""

import stpsweep


def test_every_exported_name_resolves_and_is_public():
    names = stpsweep.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert not name.startswith("_"), name
        assert hasattr(stpsweep, name), name
