"""Every name the package exports exists."""

import seqsnap


def test_every_public_name_resolves():
    assert len(set(seqsnap.__all__)) == len(seqsnap.__all__)
    for name in seqsnap.__all__:
        assert hasattr(seqsnap, name), name


def test_star_import_succeeds():
    namespace = {}
    exec("from seqsnap import *", namespace)
    assert set(seqsnap.__all__) <= namespace.keys()
