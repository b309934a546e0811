"""The package's public names."""

import specgate


def test_public_names_resolve():
    assert all(hasattr(specgate, name) for name in specgate.__all__)
    assert len(set(specgate.__all__)) == len(specgate.__all__)
