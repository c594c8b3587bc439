"""Graph-cut energy model and alpha-expansion against brute force."""

import itertools
import math
import warnings

import numpy as np
import pytest

from dentalmesh import networks, pipeline
from dentalmesh import postprocess as pp
from dentalmesh.postprocess import CutEnergyModel

from helpers import (
    edge_cost,
    exhaustive_min_energy,
    grid_mesh,
    hinge_mesh,
    reference_expand_once,
    reference_refine_labels,
    smoothness_cost,
)


def _random_model(rng, n, num_labels=2, lam=None):
    """Random instance on a random sparse pair graph."""
    raw = rng.random((n, num_labels)) + 1e-3
    probs = raw / raw.sum(axis=1, keepdims=True)
    pairs = []
    for i in range(n - 1):
        pairs.append((i, i + 1))  # chain keeps it connected
    extra = rng.integers(0, n, size=(n // 2, 2))
    pairs.extend((int(a), int(b)) for a, b in extra if a != b)
    pairs = np.array(pairs, dtype=np.int64)
    cost = rng.random(pairs.shape[0]) * 2.0
    if lam is None:
        lam = float(rng.random() * 3.0)
    return CutEnergyModel(probs, pairs, cost, lam)


def test_smoothness_cost_values():
    # right-angle concave hinge with unit barycenter distance: -log(1/2)
    assert smoothness_cost(math.pi / 2, 1.0, "concave") == pytest.approx(math.log(2.0))
    assert smoothness_cost(math.pi / 2, 2.0, "concave") == pytest.approx(2 * math.log(2.0))
    # convex hinges are beta times dearer to cut
    base = smoothness_cost(math.pi / 3, 1.5, "concave")
    assert smoothness_cost(math.pi / 3, 1.5, "convex", beta=30.0) == pytest.approx(30.0 * base)
    assert smoothness_cost(math.pi, 1.0, "flat") == 0.0
    assert smoothness_cost(math.pi / 2, 1.0, "concave", same_label=True) == 0.0
    # near-zero angles clamp instead of blowing up
    clamped = smoothness_cost(1e-9, 1.0, "concave")
    assert clamped == pytest.approx(-math.log(pp.THETA_FLOOR / math.pi))


def test_smoothness_cost_errors():
    with pytest.raises(ValueError, match="positive"):
        smoothness_cost(0.0, 1.0, "concave")
    with pytest.raises(ValueError, match="positive"):
        smoothness_cost(-0.1, 1.0, "concave")
    with pytest.raises(ValueError, match="hinge class"):
        smoothness_cost(1.0, 1.0, "saddle")


def test_build_energy_matches_scalar_edge_cost(rng):
    mesh = grid_mesh(5, 5, seed=7)
    probs = rng.random((mesh.num_cells, 3)) + 0.1
    model = pp.build_energy(mesh, probs, lam=2.0)
    assert model.pairs.shape[1] == 2
    assert model.pair_cost.shape == (model.pairs.shape[0],)
    assert np.all(model.pair_cost >= 0.0)
    for e in range(0, model.pairs.shape[0], 7):
        i, j = model.pairs[e]
        assert model.pair_cost[e] == pytest.approx(
            edge_cost(mesh, int(i), int(j)), rel=1e-9
        )


def test_build_energy_on_one_hinge():
    # a right-angle fold costs -log(1/2) times the barycenter distance when
    # concave, 30 times that when convex (the normals are orthogonal)
    half = np.full((2, 2), 0.5)
    for fold, beta in ((np.pi / 2, 1.0), (-np.pi / 2, pp.CONVEX_BETA)):
        mesh = hinge_mesh(fold)
        phi = np.linalg.norm(mesh.cell_barycenters[0] - mesh.cell_barycenters[1])
        cost = pp.build_energy(mesh, half).pair_cost
        assert cost == pytest.approx([beta * math.log(2.0) * phi], rel=1e-12)
    # folded almost flat onto itself: the angle is floored, not logged as ~0
    mesh = hinge_mesh(np.pi - 1e-6)
    phi = np.linalg.norm(mesh.cell_barycenters[0] - mesh.cell_barycenters[1])
    cost = pp.build_energy(mesh, half).pair_cost
    assert cost == pytest.approx([-math.log(pp.THETA_FLOOR / math.pi) * phi])
    assert pp.build_energy(hinge_mesh(0.0), half).pair_cost.tolist() == [0.0]


def test_build_energy_flat_edges_cost_nothing():
    mesh = grid_mesh(4, 4)  # perfectly planar
    probs = np.full((mesh.num_cells, 2), 0.5)
    model = pp.build_energy(mesh, probs)
    assert np.all(model.pair_cost == 0.0)


def test_build_energy_validation():
    mesh = grid_mesh(3, 3, seed=1)
    n = mesh.num_cells
    with pytest.raises(ValueError, match="does not fit"):
        pp.build_energy(mesh, np.ones((n + 1, 2)))
    bad = np.ones((n, 2))
    bad[0, 0] = -0.1
    with pytest.raises(ValueError, match="finite and non-negative"):
        pp.build_energy(mesh, bad)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite and non-negative"):
        pp.build_energy(mesh, bad)
    with pytest.raises(ValueError, match="lambda"):
        pp.build_energy(mesh, np.ones((n, 2)), lam=-1.0)
    with pytest.raises(ValueError, match="lambda"):
        pp.build_energy(mesh, np.ones((n, 2)), lam=np.inf)


def test_labeling_energy_hand_oracle():
    probs = np.array([[0.9, 0.1], [0.4, 0.6], [0.7, 0.3]])
    pairs = np.array([[0, 1], [1, 2]])
    cost = np.array([2.0, 5.0])
    model = CutEnergyModel(probs, pairs, cost, lam=3.0)
    labels = np.array([0, 1, 0])
    eps = pp.DATA_EPS
    expected = -(
        math.log(0.9 + eps) + math.log(0.6 + eps) + math.log(0.7 + eps)
    ) + 3.0 * (2.0 + 5.0)
    assert pp.labeling_energy(model, labels) == pytest.approx(expected, abs=1e-12)
    uniform = np.array([0, 0, 0])
    expected0 = -(math.log(0.9 + eps) + math.log(0.4 + eps) + math.log(0.7 + eps))
    assert pp.labeling_energy(model, uniform) == pytest.approx(expected0, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_expansion_matches_brute_force_two_labels(seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, n=rng.integers(4, 13))
    labels = pp.refine_labels(model)
    assert pp.labeling_energy(model, labels) == pytest.approx(
        exhaustive_min_energy(model, 2), abs=1e-9
    )


@pytest.mark.parametrize("seed", range(4))
def test_expansion_close_to_brute_force_three_labels(seed):
    # multi-label expansion is a 2-approximation in theory; on these tiny
    # instances it lands on the exact optimum
    rng = np.random.default_rng(100 + seed)
    model = _random_model(rng, n=8, num_labels=3)
    labels = pp.refine_labels(model)
    assert pp.labeling_energy(model, labels) == pytest.approx(
        exhaustive_min_energy(model, 3), abs=1e-9
    )


def test_energy_trace_monotone(rng):
    model = _random_model(rng, n=14, num_labels=3)
    labels = pp.refine_labels(model)
    trace = np.array(model.energy_trace)
    assert trace.size > 1
    assert np.all(np.diff(trace) <= 1e-12)
    init = np.argmax(model.probs, axis=1)
    assert trace[0] == pytest.approx(pp.labeling_energy(model, init))
    assert trace[-1] == pytest.approx(pp.labeling_energy(model, labels))


def test_zero_lambda_returns_argmax(rng):
    model = _random_model(rng, n=20, num_labels=4, lam=0.0)
    labels = pp.refine_labels(model)
    assert np.array_equal(labels, np.argmax(model.probs, axis=1))


def test_refine_without_pairs_is_argmax(rng):
    probs = rng.random((6, 3)) + 0.1
    model = CutEnergyModel(probs, np.zeros((0, 2), dtype=np.int64), np.zeros(0), lam=5.0)
    labels = pp.refine_labels(model)
    assert np.array_equal(labels, np.argmax(probs, axis=1))


def _contrarian_model(lam):
    """One weakly-contrarian cell joined to eight confident ones."""
    n = 9
    probs = np.full((n, 2), [0.9, 0.1])
    probs[4] = [0.45, 0.55]
    pairs = np.array([[4, j] for j in range(n) if j != 4])
    return CutEnergyModel(probs, pairs, np.ones(pairs.shape[0]), lam)


def test_smoothing_flips_isolated_noise():
    # the contrarian gives in once the pairwise term outweighs its small
    # data preference
    labels = pp.refine_labels(_contrarian_model(lam=1.0))
    assert np.all(labels == 0)
    # with lambda 0 the contrarian stays contrarian
    assert pp.refine_labels(_contrarian_model(lam=0.0))[4] == 1


def _variant(model, rng, kind):
    """The instance with duplicated pairs, zero-cost pairs or lambda 0."""
    pairs, cost, lam = model.pairs, model.pair_cost.copy(), model.lam
    if kind == "duplicates":
        dup = rng.choice(pairs.shape[0], size=pairs.shape[0] // 2)
        # repeated in both orientations
        pairs = np.concatenate([pairs, pairs[dup], pairs[dup, ::-1]])
        cost = np.concatenate([cost, cost[dup], rng.random(dup.size)])
    elif kind == "zero-cost":
        cost[rng.random(cost.size) < 0.4] = 0.0
    elif kind == "lambda-0":
        lam = 0.0
    return CutEnergyModel(model.probs, pairs, cost, lam)


def _expansions_agree(model, labels):
    unary = -np.log(model.probs + pp.DATA_EPS)
    weight = model.lam * model.pair_cost
    for alpha in range(model.probs.shape[1]):
        got = pp._expand_once(labels, alpha, unary, model.pairs, weight)
        want = reference_expand_once(labels, alpha, unary, model.pairs, weight)
        assert np.array_equal(got, want), alpha


@pytest.mark.parametrize("kind", ["plain", "duplicates", "zero-cost", "lambda-0"])
@pytest.mark.parametrize("seed", range(6))
def test_expand_once_matches_reference_random(seed, kind):
    rng = np.random.default_rng(200 + seed)
    num_labels = int(rng.integers(2, 5))
    model = _variant(_random_model(rng, n=int(rng.integers(5, 40)), num_labels=num_labels),
                     rng, kind)
    _expansions_agree(model, np.argmax(model.probs, axis=1))
    _expansions_agree(model, rng.integers(0, num_labels, size=model.probs.shape[0]))


@pytest.fixture(scope="module")
def coarse_arch_model(small_arch):
    """small_arch decimated to 400 cells with 10 % oracle-noisy one-hot probs."""
    mesh, ann = small_arch
    scan = pipeline.preprocess(mesh, ann, 400)
    rng = np.random.default_rng(5)
    noisy = scan.coarse_labels.copy()
    hit = rng.random(noisy.size) < 0.10
    shift = rng.integers(1, networks.NUM_CLASSES, size=int(hit.sum()))
    noisy[hit] = (noisy[hit] + shift) % networks.NUM_CLASSES
    return pp.build_energy(scan.coarse, networks.one_hot(noisy))


def test_expand_once_matches_reference_on_decimated_arch(coarse_arch_model):
    model = coarse_arch_model
    _expansions_agree(model, np.argmax(model.probs, axis=1))


def test_refine_energy_trace_matches_reference(coarse_arch_model, monkeypatch):
    rng = np.random.default_rng(9)
    for model in (coarse_arch_model, _random_model(rng, n=30, num_labels=4)):
        labels = pp.refine_labels(model)
        assert len(model.energy_trace) > 1
        ref = CutEnergyModel(model.probs, model.pairs, model.pair_cost, model.lam)
        with monkeypatch.context() as patch:
            patch.setattr(pp, "_expand_once", reference_expand_once)
            assert np.array_equal(labels, pp.refine_labels(ref))
        assert model.energy_trace == ref.energy_trace


@pytest.mark.parametrize("seed", range(10))
def test_expand_once_is_the_largest_minimising_move(seed):
    # quantised probabilities and costs make exact ties common; among all
    # 2^n binary moves the cut must pick a minimiser, and of the minimisers
    # the one that switches the most cells to alpha (whose alpha set holds
    # every other minimiser's)
    rng = np.random.default_rng(300 + seed)
    n, num_labels = int(rng.integers(6, 13)), 3
    raw = rng.integers(1, 4, size=(n, num_labels)).astype(np.float64)
    probs = raw / raw.sum(axis=1, keepdims=True)
    pairs = _random_model(rng, n).pairs
    cost = rng.integers(0, 3, size=pairs.shape[0]).astype(np.float64)
    model = CutEnergyModel(probs, pairs, cost, lam=float(rng.choice([0.0, 0.5, 1.0])))
    unary = -np.log(probs + pp.DATA_EPS)
    labels = rng.integers(0, num_labels, size=n)
    moves = np.array(list(itertools.product([False, True], repeat=n)))
    for alpha in range(num_labels):
        cand = np.where(moves, alpha, labels)
        energy = unary[np.arange(n), cand].sum(axis=1) + model.lam * (
            (cand[:, pairs[:, 0]] != cand[:, pairs[:, 1]]) @ cost)
        is_alpha = cand[energy <= energy.min() + 1e-9] == alpha
        largest = is_alpha[np.argmax(is_alpha.sum(axis=1))]
        assert np.all(largest >= is_alpha)
        got = pp._expand_once(labels, alpha, unary, pairs, model.lam * cost)
        assert pp.labeling_energy(model, got) <= energy.min() + 1e-9
        assert np.array_equal(got == alpha, largest)


def test_refine_warns_when_cycles_run_out(monkeypatch):
    # with the majority on label 1 the contrarian flips at the first cycle's
    # last expansion, and only the next cycle's first proves convergence
    contrarian = _contrarian_model(lam=1.0)
    model = CutEnergyModel(contrarian.probs[:, ::-1], contrarian.pairs,
                           contrarian.pair_cost, contrarian.lam)
    monkeypatch.setattr(pp, "MAX_CYCLES", 1)
    with pytest.warns(UserWarning, match="MAX_CYCLES=1"):
        labels = pp.refine_labels(model)
    assert np.all(labels == 1)
    monkeypatch.setattr(pp, "MAX_CYCLES", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(pp.refine_labels(model) == 1)
    assert len(model.energy_trace) == 4


def test_refine_stops_once_converged_with_the_full_cycle_labels(coarse_arch_model):
    """Against the loop that stops only after a whole cycle without a move:
    the same labels, a trace that is a prefix of its trace, and the rest of
    its trace only repeats the last energy."""
    rng = np.random.default_rng(11)
    models = [coarse_arch_model, _contrarian_model(lam=1.0)] + [
        _random_model(rng, n=n, num_labels=c) for n, c in ((30, 4), (40, 2), (25, 5), (8, 1))]
    shorter = 0
    for model in models:
        ref_labels, ref_trace = reference_refine_labels(model)
        labels = pp.refine_labels(model)
        trace = model.energy_trace
        assert np.array_equal(labels, ref_labels)
        assert trace == ref_trace[:len(trace)]
        assert all(e == trace[-1] for e in ref_trace[len(trace):])
        # the last accepted move is followed by num_labels - 1 failures, the
        # start by num_labels when no move is accepted
        num_labels = model.probs.shape[1]
        accepted = [i for i in range(1, len(trace)) if trace[i] < trace[i - 1]]
        tail = len(trace) - 1 - max(accepted, default=0)
        assert tail == (num_labels - 1 if accepted else num_labels)
        shorter += len(trace) < len(ref_trace)
    assert shorter > 0
