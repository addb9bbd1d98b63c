"""Engine/legacy parity: the vectorised backend must be bit-identical.

The engine path replaces full-pool sorts with slack-guarded prefix
selection and linear conflict scans with a spatial index, so these tests
are the contract that none of that changed a single float: every ball
(centre, radius, label, member order), every noise/orphan index and the
iteration count must match the reference backend exactly, across seeds,
densities and both ablation switches — including tie-heavy quantised data
where stable sort order is what decides membership.
"""

import numpy as np
import pytest

from repro.core.rdgbg import RDGBG


def _run_pair(x, y, **kwargs):
    legacy = RDGBG(backend="legacy", **kwargs).generate(x, y)
    engine = RDGBG(backend="engine", **kwargs).generate(x, y)
    return legacy, engine


def _assert_identical(legacy, engine):
    a, b = legacy.ball_set, engine.ball_set
    assert len(a) == len(b)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.radii, b.radii)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.sizes, b.sizes)
    # member order within each ball is part of the contract (it encodes the
    # legacy stable-sort tie order)
    np.testing.assert_array_equal(a.member_indices, b.member_indices)
    np.testing.assert_array_equal(legacy.noise_indices, engine.noise_indices)
    np.testing.assert_array_equal(legacy.orphan_indices, engine.orphan_indices)
    assert legacy.n_iterations == engine.n_iterations


FIXTURES = ["blobs2", "blobs3", "moons", "noisy_blobs2", "imbalanced2"]


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_engine_bit_identical_on_fixtures(fixture, seed, request):
    x, y = request.getfixturevalue(fixture)
    legacy, engine = _run_pair(x, y, rho=5, random_state=seed)
    _assert_identical(legacy, engine)


@pytest.mark.parametrize("rho", [2, 3, 9, 19])
def test_engine_bit_identical_across_rho(moons, rho):
    x, y = moons
    legacy, engine = _run_pair(x, y, rho=rho, random_state=7)
    _assert_identical(legacy, engine)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"detect_noise": False},
        {"enforce_no_overlap": False},
        {"detect_noise": False, "enforce_no_overlap": False},
    ],
)
def test_engine_bit_identical_under_ablations(noisy_blobs2, kwargs):
    x, y = noisy_blobs2
    legacy, engine = _run_pair(x, y, rho=5, random_state=3, **kwargs)
    _assert_identical(legacy, engine)


@pytest.mark.parametrize("seed", [0, 5])
def test_engine_bit_identical_on_tied_distances(seed):
    """Quantised coordinates create massive distance ties; stable order must
    survive the prefix selection."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(300, 3)), 1)
    y = rng.integers(0, 3, size=300)
    legacy, engine = _run_pair(x, y, rho=5, random_state=seed)
    _assert_identical(legacy, engine)


def test_engine_bit_identical_with_duplicate_rows():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(60, 2))
    x = np.vstack([base, base[:30]])  # exact duplicates
    y = np.concatenate([np.repeat([0, 1], 30), np.repeat(0, 30)])
    legacy, engine = _run_pair(x, y, rho=3, random_state=2)
    _assert_identical(legacy, engine)


def test_engine_bit_identical_on_larger_run():
    """Large enough to trigger pool compaction and cKDTree conflict pruning."""
    rng = np.random.default_rng(17)
    n = 1500
    centers = rng.normal(size=(6, 4)) * 4
    x = np.vstack([rng.normal(c, 1.1, size=(n // 6, 4)) for c in centers])
    y = np.repeat(np.arange(6) % 3, n // 6)
    perm = rng.permutation(x.shape[0])
    legacy, engine = _run_pair(x[perm], y[perm], rho=5, random_state=23)
    _assert_identical(legacy, engine)


@pytest.mark.parametrize("fixture", ["moons", "noisy_blobs2"])
def test_engine_preserves_invariants(fixture, request):
    x, y = request.getfixturevalue(fixture)
    result = RDGBG(rho=5, random_state=0, backend="engine").generate(x, y)
    ball_set = result.ball_set
    assert ball_set.is_partition()
    assert np.all(ball_set.purity_against(y) == 1.0)
    assert ball_set.max_overlap() <= 1e-9
    covered = set(ball_set.member_indices.tolist())
    noise = set(result.noise_indices.tolist())
    assert covered | noise == set(range(x.shape[0]))
    assert covered.isdisjoint(noise)


def test_gbabs_identical_across_backends(moons):
    x, y = moons
    from repro.core.gbabs import GBABS

    a = GBABS(rho=5, random_state=0, backend="legacy")
    b = GBABS(rho=5, random_state=0, backend="engine")
    xa, ya = a.fit_resample(x, y)
    xb, yb = b.fit_resample(x, y)
    np.testing.assert_array_equal(a.sample_indices_, b.sample_indices_)
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)
    np.testing.assert_array_equal(
        a.borderline_ball_indices_, b.borderline_ball_indices_
    )


def test_gb_classifier_identical_across_backends(blobs3):
    x, y = blobs3
    from repro.classifiers.gb_classifier import GranularBallClassifier

    preds = {}
    for backend in ("legacy", "engine"):
        clf = GranularBallClassifier(rho=5, random_state=0, backend=backend).fit(x, y)
        preds[backend] = clf.predict(x)
    np.testing.assert_array_equal(preds["legacy"], preds["engine"])


# ----------------------------------------------------------------------
# conflict-radius-first diffusion: one candidate, hand-built geometry
# ----------------------------------------------------------------------
#
# Each case places an existing ball centred at -4 with radius 1, so the
# candidate at 0 has r_conf = 3 exactly, and runs one candidate through
# both backends from the same state.  Row 0 is the old ball's centre (no
# longer undivided), row 1 the candidate; the rest are listed by position.


def _one_candidate(monkeypatch, positions, labels, *, enforce_no_overlap=True):
    """Run the candidate through both backends; returns the legacy balls
    and the number of prefix scans the engine needed."""
    from repro.core.engine import (
        BallCenterIndex,
        CandidateScan,
        GranularBallSetBuilder,
        ShrinkingPool,
        VectorisedBackend,
        _prefix_slack,
    )

    x = np.concatenate(([-4.0, 0.0], positions))[:, None]
    y = np.concatenate(([1, 0], labels))
    n = x.shape[0]
    gen = RDGBG(rho=5, enforce_no_overlap=enforce_no_overlap)

    def fresh_state():
        in_u = np.ones(n, dtype=bool)
        in_u[0] = False
        return in_u, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)

    legacy_state = fresh_state()
    balls = []
    gen._process_candidate(1, x, y, *legacy_state, balls, [x[0]], [1.0])

    engine_state = fresh_state()
    pool = ShrinkingPool(x)
    pool.kill(np.array([0]))
    index = BallCenterIndex(1) if enforce_no_overlap else None
    if index is not None:
        index.add(x[0], 1.0)
    builder = GranularBallSetBuilder(1, n)
    calls = []
    original = CandidateScan.prefix

    def counted(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(CandidateScan, "prefix", counted)
    VectorisedBackend()._process_candidate(
        gen, 1, x, y, *engine_state, pool, index, builder, _prefix_slack(1)
    )

    for want, got in zip(legacy_state, engine_state):
        np.testing.assert_array_equal(want, got)
    assert len(builder) == len(balls)
    if balls:
        built = builder.build()
        assert built.radii[0] == balls[0].radius
        np.testing.assert_array_equal(built.members_of(0), balls[0].indices)
    return balls, len(calls)


@pytest.mark.parametrize("noise_first", [False, True])
def test_candidate_whose_nearest_neighbour_lies_beyond_r_conf(monkeypatch, noise_first):
    # 100 same-class rows from 3.5 on: the nearest is past r_conf = 3, so
    # the clipped radius is 0 without searching past the first prefix.
    # With noise_first the nearest row is a lone dissenter (h == 1),
    # removed as noise before the radius is looked at.
    positions = np.linspace(3.5, 9.0, 100)
    labels = np.zeros(100, dtype=int)
    if noise_first:
        positions = np.concatenate(([0.01], positions))
        labels = np.concatenate(([1], labels))
    balls, prefix_calls = _one_candidate(monkeypatch, positions, labels)
    assert balls == []
    assert prefix_calls == 1


def test_r_conf_between_first_neighbour_and_cr_keeps_tolerance_members(monkeypatch):
    # 29 rows inside r_conf, one exactly at it (so the radius is r_conf),
    # then rows just past it, r_conf + 5e-16 among them: the first prefix
    # ends there, inside the member tolerance.  A row at r_conf + 1e-12 is
    # beyond that prefix but still a member, so the extension must not
    # stop at r_conf itself.  CR is 3.5 (the last row before the dissenter
    # at 5), above r_conf.
    tol = [np.nextafter(3.0, 4.0), 3.0 + 5e-16, 3.0 + 8e-16]
    positions = np.concatenate(
        (np.linspace(0.1, 2.9, 29), [3.0], tol, [3.0 + 1e-12, 3.5, 5.0])
    )
    labels = np.concatenate((np.zeros(35, dtype=int), [1]))
    balls, prefix_calls = _one_candidate(monkeypatch, positions, labels)
    assert len(balls) == 1
    assert balls[0].radius == 3.0
    # the centre plus all 34 rows up to r_conf + 1e-12
    assert balls[0].indices.size == 35
    assert prefix_calls == 2


def test_without_overlap_clipping_the_run_reaches_the_first_dissenter(monkeypatch):
    # enforce_no_overlap=False: r_conf = inf, so the prefix must extend to
    # the first heterogeneous row, which lies beyond the first prefix.
    positions = np.concatenate((np.linspace(0.1, 6.0, 60), [7.0]))
    labels = np.concatenate((np.zeros(60, dtype=int), [1]))
    balls, prefix_calls = _one_candidate(
        monkeypatch, positions, labels, enforce_no_overlap=False
    )
    assert len(balls) == 1
    assert balls[0].radius == 6.0
    assert prefix_calls == 2
