import cfdyn


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from cfdyn import *", namespace)
    del namespace["__builtins__"]
    assert len(cfdyn.__all__) == len(set(cfdyn.__all__))
    assert sorted(namespace) == sorted(cfdyn.__all__)
