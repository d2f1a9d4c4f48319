"""The package's public surface."""

import mflq


def test_public_names_resolve():
    """Every name in mflq.__all__ exists, so a deleted function cannot stay exported."""
    assert len(set(mflq.__all__)) == len(mflq.__all__)
    missing = [name for name in mflq.__all__ if not hasattr(mflq, name)]
    assert missing == []
