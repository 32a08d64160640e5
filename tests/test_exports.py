import ella


def test_every_exported_name_resolves():
    assert [name for name in ella.__all__ if not hasattr(ella, name)] == []
    assert len(set(ella.__all__)) == len(ella.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ella import *", namespace)
    assert set(ella.__all__) <= set(namespace)
