import math

import numpy as np
import pytest

import qwjoin.bounds as bounds_mod
from qwjoin import (
    InconsistencyError,
    WeightedGraph,
    bound_sweep,
    disjoint_union,
    double_cone_pst,
    equality_condition,
    family,
    mimicry_sweep,
)

from conftest import random_simple


def test_bound_sweep_laplacian_tight_instance():
    # m=6, n=2 with matching offset valuations: the 2/m ceiling is attained
    x = disjoint_union(family("C", 4), family("O", 2))
    rep = bound_sweep(x, family("O", 2), 0, 2)
    assert rep.bound == pytest.approx(1.0 / 3.0)
    assert rep.max_abs_deviation <= rep.bound + 1e-9
    assert rep.max_abs_deviation == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert rep.equality_possible
    # the witness sits on an odd multiple of pi/gcd(m, n) = pi/2
    ratio = rep.argmax_time / (math.pi / 2)
    assert abs(ratio - round(ratio)) < 1e-2 and round(ratio) % 2 == 1


def test_bound_sweep_adjacency_tight_instance():
    # K6 v K2: offsets lam+ - k = 2 and lam- - k = -6 share valuation 1
    rep = bound_sweep(family("K", 6), family("K", 2), 0, 1, matrix="adjacency")
    assert rep.bound == pytest.approx(1.0 / 3.0)
    assert rep.max_abs_deviation == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert rep.equality_possible


def test_bound_sweep_deviation_definition():
    x, y = family("C", 4), family("O", 2)
    rep = bound_sweep(x, y, 0, 1, samples=257)
    assert rep.deviation.shape == rep.times.shape
    recomputed = np.abs(rep.join_magnitudes) - np.abs(rep.part_magnitudes)
    assert np.allclose(rep.deviation, recomputed, atol=1e-12)
    assert np.all(np.abs(rep.deviation) <= rep.bound + 1e-9)


def test_bound_sweep_randomized_never_violates():
    rng = np.random.default_rng(61)
    for _ in range(40):
        x = random_simple(rng, int(rng.integers(2, 8)))
        y = random_simple(rng, int(rng.integers(1, 8)))
        u, v = (0, 1) if x.order >= 2 else (0, 0)
        rep = bound_sweep(x, y, u, v, samples=513)
        assert np.max(np.abs(rep.deviation)) <= 2.0 / x.order + 1e-9


def test_bound_sweep_requires_left_pair():
    with pytest.raises(ValueError):
        bound_sweep(family("C", 4), family("O", 2), 0, 4)


def test_equality_condition_reports_witness():
    x = disjoint_union(family("C", 4), family("O", 2))
    eq = equality_condition(x, family("O", 2))
    assert eq["achievable"]
    assert eq["bound"] == pytest.approx(1.0 / 3.0)
    assert eq["base_time"] == pytest.approx(math.pi / 2)
    assert eq["witness_value"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_equality_condition_mismatched_valuations():
    # m=4, n=2: nu2(4) != nu2(2), the ceiling stays out of reach
    eq = equality_condition(family("C", 4), family("O", 2))
    assert not eq["achievable"]


@pytest.mark.parametrize("matrix, cases", [("laplacian", 128), ("adjacency", 8)])
def test_the_equality_condition_is_the_double_cone_rule(matrix, cases):
    # O2 v O_n: where the fresh offsets are integers, the 2/m bound is reached
    # exactly when the double cone has transfer between its apexes (the
    # adjacency offsets are integers for n = 2 j^2 alone)
    compared = 0
    for n in range(1, 129):
        cone = family("O", n)
        achievable = equality_condition(family("O", 2), cone, matrix)["achievable"]
        if achievable is not None:
            assert achievable == double_cone_pst(cone, matrix).pst, n
            compared += 1
    assert compared == cases


def test_mimicry_lattice_zeros():
    summary = mimicry_sweep(family("O", 2), family("O", 2))
    assert len(summary.lattice_times) > 0
    # gcd(2, 2) = 2 spaces the lattice at pi
    assert summary.lattice_times[0] == pytest.approx(math.pi)
    # max_deviation holds per-pair extremes over the sweep
    assert summary.max_deviation.shape == (2, 2)
    assert float(np.max(summary.max_deviation)) <= 2.0 / 2.0 + 1e-9


def test_mimicry_sweep_adjacency():
    summary = mimicry_sweep(family("K", 6), family("K", 2), matrix="adjacency")
    assert float(np.max(summary.max_deviation)) <= 2.0 / 6.0 + 1e-9


@pytest.mark.parametrize(
    "sweep, message",
    [
        (lambda: bound_sweep(family("C", 4), family("O", 2), 0, 1), "above the bound"),
        (lambda: mimicry_sweep(family("C", 4), family("O", 2)), "does not vanish on the time lattice"),
    ],
    ids=["bound", "mimicry"],
)
def test_bound_sweep_detects_a_lying_alpha(monkeypatch, sweep, message):
    # each sweep derives join entries through alpha; a corrupted correction
    # term must trip its check, not pass silently
    real_alpha = bounds_mod.alpha

    def lying_alpha(params, t):
        return real_alpha(params, t) + 1.0

    monkeypatch.setattr(bounds_mod, "alpha", lying_alpha)
    with pytest.raises(InconsistencyError, match=message):
        sweep()


@pytest.mark.parametrize("sweep", [bound_sweep, mimicry_sweep], ids=["bound", "mimicry"])
@pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.0, -1.0, 1e9], ids=str)
def test_sweeps_check_t_max_before_building_times(monkeypatch, sweep, t_max):
    def no_grid(*args, **kwargs):
        raise AssertionError("a time grid was built before t_max was checked")

    monkeypatch.setattr(bounds_mod.np, "linspace", no_grid)
    args = (family("C", 4), family("O", 2)) + ((0, 2) if sweep is bound_sweep else ())
    with pytest.raises(ValueError, match="t_max"):
        sweep(*args, t_max=t_max)


@pytest.mark.parametrize("sweep", [bound_sweep, mimicry_sweep], ids=["bound", "mimicry"])
@pytest.mark.parametrize("samples", [0, -2], ids=str)
@pytest.mark.parametrize(
    "parts, matrix",
    [((family("C", 4), family("O", 2)), "laplacian"), ((family("C", 5), family("O", 1)), "adjacency")],
    ids=["lattice", "no-lattice"],
)
def test_sweeps_check_samples_before_building_times(monkeypatch, sweep, samples, parts, matrix):
    def no_grid(*args, **kwargs):
        raise AssertionError("a time grid was built before samples was checked")

    monkeypatch.setattr(bounds_mod.np, "linspace", no_grid)
    args = parts + ((0, 2) if sweep is bound_sweep else ())
    with pytest.raises(ValueError, match="samples must be at least 1"):
        sweep(*args, matrix=matrix, samples=samples)


def test_lattice_may_hold_as_many_times_as_samples():
    # C4 v O2 has the lattice step pi/2, so t_max = 8 pi holds 16 lattice times
    rep = bound_sweep(family("C", 4), family("O", 2), 0, 2, t_max=8 * math.pi, samples=16)
    assert len(rep.structured_times) == 16
    with pytest.raises(ValueError, match="more than 15 lattice times"):
        bound_sweep(family("C", 4), family("O", 2), 0, 2, t_max=8 * math.pi, samples=15)
