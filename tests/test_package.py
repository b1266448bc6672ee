import zapvss


def test_every_export_resolves_and_is_unique():
    names = zapvss.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(zapvss, name)]
    assert not missing
