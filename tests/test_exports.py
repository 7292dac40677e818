"""Every name the package exports resolves on it."""

import graphdyn


def test_every_exported_name_resolves():
    missing = [name for name in graphdyn.__all__ if not hasattr(graphdyn, name)]
    assert missing == []
    assert len(set(graphdyn.__all__)) == len(graphdyn.__all__)
