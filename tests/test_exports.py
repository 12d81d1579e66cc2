import vesim


def test_public_names_resolve_once():
    names = vesim.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [n for n in names if not hasattr(vesim, n)]
    assert not missing, f"exported but undefined: {missing}"
