"""Backend parity: the compiled kernels must match the pure ones bit for bit.

The composition sums have one implementation and no compiled twin; see
test_engine.py.
"""

import random

import pytest

from conftest import random_digraph
from hopfdg import _kernels_py as pure
from hopfdg import kernels

compiled = pytest.importorskip("hopfdg._kernels")

FUNCTIONS = ("lower_half_masks", "count_strict_colorings",
             "count_weak_colorings", "count_dilation_points")


def graph_cases():
    rng = random.Random(2024)
    cases = []
    for nv in range(7):
        for _ in range(12):
            labels = [f"v{i}" for i in range(nv)]
            g = random_digraph(rng, labels, p=rng.choice([0.2, 0.5, 0.8]))
            cases.append(g.edge_arrays())
    return cases


@pytest.mark.parametrize("name", FUNCTIONS)
def test_backend_exports(name):
    assert hasattr(compiled, name)
    assert hasattr(pure, name)
    assert hasattr(kernels, name)


def test_lower_half_masks_parity():
    for nv, tails, heads in graph_cases():
        assert compiled.lower_half_masks(nv, tails, heads) \
            == pure.lower_half_masks(nv, tails, heads)


def test_coloring_count_parity():
    for nv, tails, heads in graph_cases():
        for n in (0, 1, 2, 3, 5):
            assert compiled.count_strict_colorings(nv, tails, heads, n) \
                == pure.count_strict_colorings(nv, tails, heads, n)
            assert compiled.count_weak_colorings(nv, tails, heads, n) \
                == pure.count_weak_colorings(nv, tails, heads, n)


def test_dilation_parity():
    for nv, tails, heads in graph_cases():
        for d in (-1, 0, 1, 2, 4):
            for interior in (False, True):
                assert compiled.count_dilation_points(nv, tails, heads, d, interior) \
                    == pure.count_dilation_points(nv, tails, heads, d, interior)


def test_size_guards_match():
    for mod in (compiled, pure):
        with pytest.raises(ValueError):
            mod.lower_half_masks(26, [], [])


def test_selected_backend_consistency():
    # whichever backend was selected, its functions are the module's
    src = compiled if kernels.BACKEND == "compiled" else pure
    for name in FUNCTIONS:
        assert getattr(kernels, name) is getattr(src, name)
