import gaplab


def test_every_exported_name_resolves():
    missing = [name for name in gaplab.__all__ if not hasattr(gaplab, name)]
    assert missing == []


def test_exports_are_listed_once():
    assert len(gaplab.__all__) == len(set(gaplab.__all__))
