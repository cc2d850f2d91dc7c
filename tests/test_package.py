import whitdim


def test_every_export_resolves_once():
    assert len(whitdim.__all__) == len(set(whitdim.__all__))
    missing = [name for name in whitdim.__all__ if not hasattr(whitdim, name)]
    assert missing == []
