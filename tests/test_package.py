"""Tests for the package's public names."""

import quasigw
from quasigw import kernel, quasispecies, simulate, spectral

MODULES = (kernel, spectral, quasispecies, simulate)


def test_all_is_the_modules_all_in_order():
    want = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert quasigw.__all__ == want
    assert len(set(quasigw.__all__)) == len(quasigw.__all__)


def test_each_name_is_the_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(quasigw, name) is obj, name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_no_oracle_or_uncalled_kernel_is_public():
    for name in ("power_iteration", "limit_kernel"):
        assert name not in quasigw.__all__
        assert not hasattr(quasigw, name)
        assert not any(hasattr(module, name) for module in MODULES)


def test_perron_is_the_one_public_perron_solve():
    """perron(params, k_max) runs the closed-form head and its band
    fallback, so neither the head nor its slow-series error is public, and
    the band has no left product: the band solve's residual is a block
    product of its solver."""
    for name in ("perron_head", "SlowSeriesError"):
        assert name not in quasigw.__all__
        assert not hasattr(quasigw, name) and not hasattr(spectral, name)
    assert not hasattr(kernel.KernelBand, "rmatvec")
