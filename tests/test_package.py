import costplan


def test_every_exported_name_resolves():
    namespace = {}
    exec("from costplan import *", namespace)
    assert all(name in namespace for name in costplan.__all__)
