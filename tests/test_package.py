import photon_transistor


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from photon_transistor import *", namespace)
    missing = [name for name in photon_transistor.__all__ if name not in namespace]
    assert not missing
    assert len(set(photon_transistor.__all__)) == len(photon_transistor.__all__)
