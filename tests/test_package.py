"""The package's public surface: one list per module, re-exported whole."""

import maternlab
from maternlab import (
    errors,
    experiments,
    interpolation,
    kernels,
    mercer,
    seqmodel,
    testfunctions,
)

MODULES = (errors, experiments, interpolation, kernels, mercer, seqmodel, testfunctions)


def test_package_exports_the_union_of_module_lists():
    union = set()
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__)
        union |= set(module.__all__)
    assert set(maternlab.__all__) == union
    assert len(maternlab.__all__) == len(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(maternlab, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from maternlab import *", namespace)
    assert namespace["run_trials"] is seqmodel.run_trials
    assert set(maternlab.__all__) <= set(namespace)
