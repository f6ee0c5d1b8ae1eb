"""The traced benchmark run wraps cuspcal functions by name; a rename or
deletion in the library must fail here rather than in the benchmark."""

import scipy.sparse.linalg

from cuspcal import discrete, linalg
from perfbench.trace import Tracer, _targets


def test_every_target_is_patched():
    tracer = Tracer()
    try:
        tracer.install()
        for owner, attr, *_ in _targets():
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
        assert hasattr(linalg.ContourSpec.quadrature, "__wrapped__")
        assert hasattr(linalg.SubspaceBasis.from_span, "__wrapped__")
        assert discrete.spla is not scipy.sparse.linalg
    finally:
        tracer.uninstall()
    assert discrete.spla is scipy.sparse.linalg
