"""The package namespace: every name in ``esckit.__all__`` is importable."""

import esckit


def test_every_exported_name_resolves_and_star_import_works():
    assert sorted(set(esckit.__all__)) == sorted(esckit.__all__)
    assert [name for name in esckit.__all__ if not hasattr(esckit, name)] == []
    namespace = {}
    exec("from esckit import *", namespace)
    assert set(esckit.__all__) <= set(namespace)
