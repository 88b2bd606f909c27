"""The package's public surface: every exported name exists."""

import swda


def test_every_exported_name_resolves():
    assert [name for name in swda.__all__ if not hasattr(swda, name)] == []
    assert len(set(swda.__all__)) == len(swda.__all__)
    namespace = {}
    exec("from swda import *", namespace)
    assert set(swda.__all__) <= set(namespace)
