import qgf


def test_every_exported_name_resolves():
    assert len(qgf.__all__) == len(set(qgf.__all__))
    missing = [name for name in qgf.__all__ if not hasattr(qgf, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from qgf import *", namespace)
    assert set(qgf.__all__) <= set(namespace)
