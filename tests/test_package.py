import gospace


def test_all_names_are_unique_and_resolve():
    names = gospace.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(gospace, name)]
    assert missing == []


def test_engine_entry_points_are_exported():
    assert {"residuals", "verdicts"} <= set(gospace.__all__)
    assert gospace.residuals is gospace.gocheck.residuals
    assert gospace.verdicts is gospace.gocheck.verdicts


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gospace import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(gospace.__all__)
