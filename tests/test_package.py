"""Tests for the package's public surface."""

import dnzeta


def test_every_public_name_resolves():
    # A deleted name must not survive as a stale string in __all__.
    missing = [name for name in dnzeta.__all__ if not hasattr(dnzeta, name)]
    assert missing == []
    assert len(set(dnzeta.__all__)) == len(dnzeta.__all__)
