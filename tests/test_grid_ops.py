import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from tvdeblur import (
    KernelSpec,
    SolverConfig,
    build_cache,
    degrade,
    grid_ops,
    make_kernel,
    make_phantom,
    prepare_u,
    shrink,
    validate_image,
)


def test_make_kernel_average_9():
    k = make_kernel(KernelSpec("average", 9))
    assert k.shape == (9, 9)
    assert np.all(k == 1.0 / 81.0)
    assert np.array_equal(make_kernel("average:9"), k)  # the CLI spelling builds the same taps


def test_make_kernel_delta():
    assert np.array_equal(make_kernel(KernelSpec("delta")), [[1.0]])


def test_make_kernel_gaussian_symmetry_and_flux():
    k = make_kernel(KernelSpec("gaussian", 3, 0.5))
    assert np.allclose(k, np.rot90(k), atol=0)
    assert abs(k.sum() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "fields, message",
    [
        (("average", 4), "kernel size must be odd and positive, got 4"),
        (("gaussian", 2, 0.5), "kernel size must be odd and positive, got 2"),
        (("gaussian", 3, 0.0), "gaussian width must be positive and finite"),
        (("gaussian", 3, -1.0), "gaussian width must be positive and finite"),
        (("box", 3), "unknown kernel kind 'box'"),
        (("delta", 5), "a delta kernel has size 1, got 5"),
        (("average", 3, 2.5), "only a gaussian kernel has a width, got 2.5 for average"),
    ],
    ids=["spec0", "spec1", "spec2", "spec3", "unknown_kind", "sized_delta", "average_with_width"],
)
def test_kernel_spec_rejects_bad_fields_when_made(fields, message):
    # every spec rule holds where the spec is made, so a spec that exists can be built
    with pytest.raises(ValueError, match=message):
        KernelSpec(*fields)


def test_gaussian_width_whose_square_underflows_is_rejected():
    # 2 s^2 is 0 for s = 1e-300: the taps would be 0/0, so the width is refused by name
    with pytest.raises(ValueError, match="width"):
        KernelSpec("gaussian", 3, 1e-300)


def test_gaussian_width_whose_exponent_overflows_is_a_delta():
    # 2 s^2 is a subnormal > 0 for s = 1e-160, so r^2 / (2 s^2) overflows to inf off the centre tap
    assert np.array_equal(make_kernel(KernelSpec("gaussian", 3, 1e-160)), [[0, 0, 0], [0, 1, 0], [0, 0, 0]])


def test_kernel_spec_string_round_trip():
    for text in ("delta", "average:9", "gaussian:3:0.5", "gaussian:7:1.5", "gaussian:5:1.23456789", "gaussian:3:1e-160"):
        assert str(KernelSpec.from_string(text)) == text
    with pytest.raises(ValueError, match="unknown kernel spec 'box:3'"):
        KernelSpec.from_string("box:3")
    with pytest.raises(ValueError, match="cannot parse kernel spec 'average:nine'"):
        KernelSpec.from_string("average:nine")


def test_validate_image_invariants():
    assert validate_image(np.zeros((3, 3))).dtype == np.float64
    with pytest.raises(ValueError):
        validate_image(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        validate_image(np.zeros((1, 1)))
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        validate_image(bad)
    with pytest.raises(ValueError, match="observation contains NaN or Inf"):
        validate_image(bad, "observation")
    # the float64 cast would keep only the real part
    with pytest.raises(ValueError, match="ground truth must be real, got complex values"):
        validate_image(np.zeros((3, 3)) + 1j, "ground truth")


def test_numbers_have_one_rule():
    # numbers.Real and numbers.Integral appear in the package only inside grid_ops.is_number
    pattern = re.compile(r"numbers\.(?:Real|Integral)|from numbers import")
    in_rule = len(pattern.findall(inspect.getsource(grid_ops.is_number)))
    assert in_rule == 2
    for path in Path(grid_ops.__file__).parent.glob("*.py"):
        expected = in_rule if path.name == "grid_ops.py" else 0
        assert len(pattern.findall(path.read_text(encoding="utf-8"))) == expected, path.name


def prepare_4x4(mu, beta):
    return prepare_u(np.zeros((4, 4)), mu, beta, build_cache(np.ones((1, 1)), 4))


def solver_config(**field):
    SolverConfig(**{"mu": 1.0, **field}).validate()


# Every public entry that takes a number: (call with the value, words naming the field, whether the field is an integer)
NUMBER_ENTRIES = {
    "shrink-t": (lambda v: shrink(np.zeros((4, 4, 2)), v), "shrinkage threshold", False),
    "prepare_u-mu": (lambda v: prepare_4x4(v, 1.0), "mu must be a positive real number", False),
    "prepare_u-beta": (lambda v: prepare_4x4(1.0, v), "beta must be a positive real number", False),
    "build_cache-n": (lambda v: build_cache(np.ones((1, 1)), v), "grid side n must be an integer", True),
    "make_phantom-n": (make_phantom, "phantom needs n >= 4", True),
    "SolverConfig-mu": (lambda v: solver_config(mu=v), "mu must be a real number", False),
    "SolverConfig-tol": (lambda v: solver_config(tol=v), "tol must be a real number", False),
    "SolverConfig-beta_fixed": (lambda v: solver_config(beta_fixed=v), "beta_fixed must be a real number", False),
    # the value as the second entry: a rule that checked only the first would let it through
    "SolverConfig-beta_schedule": (
        lambda v: solver_config(beta_schedule=(1e-3, v)), "beta_schedule entries must be real numbers", False,
    ),
    "SolverConfig-max_inner_iters": (
        lambda v: solver_config(max_inner_iters=v), "max_inner_iters must be an integer", True,
    ),
    "SolverConfig-max_multiplier_updates": (
        lambda v: solver_config(max_multiplier_updates=v), "max_multiplier_updates must be an integer", True,
    ),
    "degrade-sigma": (
        lambda v: degrade(np.zeros((4, 4)), np.ones((1, 1)), v, 0), "sigma must be a finite nonnegative real number", False,
    ),
    "degrade-seed": (lambda v: degrade(np.zeros((4, 4)), np.ones((1, 1)), 0.01, v), "seed must be an integer", True),
    "KernelSpec-size": (lambda v: KernelSpec("average", v), "kernel size must be an integer", True),
    "KernelSpec-width": (lambda v: KernelSpec("gaussian", 3, v), "gaussian width must be a real number", False),
}


@pytest.mark.parametrize(
    "entry, value",
    [
        (entry, value)
        for entry, (_, _, integer) in NUMBER_ENTRIES.items()
        # a float, even an integral one, is no integer; 10**400 is a real that no float64 holds
        for value in (True, "1", None) + ((1.5, np.float64(9.0)) if integer else (10**400,))
    ],
)
def test_entries_refuse_what_is_not_a_number_by_name(entry, value):
    call, field, _ = NUMBER_ENTRIES[entry]
    with pytest.raises(ValueError, match=field):
        call(value)


@pytest.mark.parametrize(
    "entry, value",
    [
        (entry, value)
        for entry, (_, _, integer) in NUMBER_ENTRIES.items()
        for value in ((np.int64(9), np.int32(9)) if integer else (np.float64(0.5), np.float32(0.5)))
    ],
)
def test_entries_take_numpy_scalars(entry, value):
    NUMBER_ENTRIES[entry][0](value)
