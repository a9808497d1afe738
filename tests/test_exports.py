import monosplit


def test_every_export_resolves_once():
    names = monosplit.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(monosplit, name)]
    assert missing == []
