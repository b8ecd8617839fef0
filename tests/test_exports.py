"""The package's public names."""

import goeritz2


def test_every_name_in_all_resolves():
    missing = [name for name in goeritz2.__all__ if not hasattr(goeritz2, name)]
    assert not missing
    assert len(set(goeritz2.__all__)) == len(goeritz2.__all__)
