import metaprop


def test_every_public_name_resolves():
    # a stale __all__ entry raises AttributeError here, not at a user's import
    for name in metaprop.__all__:
        getattr(metaprop, name)
