"""Householder QR kept as reflectors: ``linalg.householder`` and
``linalg.apply_householder``, and the receiver image route that reads them
from REFLECTOR_ROWS rows on.

``householder`` tells whether each matrix has full column rank as ``_rank``
of the singular values of its R does, whether a bound on R decides a row
(the certificate on R's inverse, or R's least diagonal entry against a
lower bound on its largest singular value) or the SVD does.
``has_full_column_rank`` takes the same decision from the R of its
equilibrated columns, and answers as the SVD of those columns does.

``np.linalg.qr(..., mode="complete")`` is the oracle of the helpers: Q's
columns past a full column rank span the complement it gives, to within
what float64 resolves at the matrix's condition, and Q^H x agrees with its
Q to 1e-13 of |x|. Each matrix of a stack gets the bits it gets alone. The
receiver's oracle is the full-U SVD it replaced, which a row short of rank
still takes: the reports must be equal and the rates agree to 1e-12
relative.
"""

import collections
import warnings

import numpy as np
import pytest

import ia_lab.errors
import ia_lab.linalg
import ia_lab.receiver
import ia_lab.schemes
from ia_lab import SchemeConfig, check_alignment, zf_rates
from ia_lab.evaluation import _trial_seed
from ia_lab.linalg import (HOUSEHOLDER_BLOCK, RANK_TOL, SHORT_MARGIN, _full_rank, _rank,
                           apply_householder, equilibrate_columns, has_full_column_rank,
                           householder)
from ia_lab.receiver import _pass

from conftest import replaced, stacked

EPS = np.finfo(float).eps


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def largest_sine(a, b):
    """Sine of the largest principal angle between the spans of two
    orthonormal bases of one dimension."""
    return np.linalg.norm(a - b @ (b.conj().T @ a), 2)


def power_basis(n):
    """siso-k3's equilibrated transmitter 1 precoder of order n, seed 1: a
    power basis, ill-conditioned from n = 8 on."""
    scheme, _ = SchemeConfig("siso-k3", n=n).build(1)
    return equilibrate_columns(scheme.precoders[0])


def planted(ratio, rows=60, cols=48, seed=0):
    """A rows x cols matrix with sigma_max 1 and sigma_min ``ratio``, its
    other singular values at 1e-4, between random unitary bases: at ratio
    3e-8 the certificate's bound reaches it, at 1.5e-8 only the SVD does."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(complex_normal(rng, (rows, cols)))[0]
    v = np.linalg.qr(complex_normal(rng, (cols, cols)))[0]
    s = np.r_[1.0, np.full(cols - 2, 1e-4), ratio]
    return (u * s) @ v.conj().T


# (label, matrix): random ones of a single block, of more than one (243
# columns, 275 x 243 as siso-general K=4 n=2's transmitter 1: eight blocks),
# square, and power bases
MATRICES = {
    "7 x 4": lambda rng: complex_normal(rng, (7, 4)),
    "275 x 32": lambda rng: complex_normal(rng, (275, 32)),
    "275 x 243": lambda rng: complex_normal(rng, (275, 243)),
    "square 5 x 5": lambda rng: complex_normal(rng, (5, 5)),
    "power basis n=3": lambda rng: power_basis(3),
    "power basis n=8": lambda rng: power_basis(8),
}


@pytest.mark.parametrize("label", list(MATRICES))
def test_trailing_columns_span_the_complete_qr_complement(label):
    rng = np.random.default_rng(7)
    a = MATRICES[label](rng)
    rows, cols = a.shape
    reflectors, full = householder(a)
    assert full is True
    q = apply_householder(reflectors, np.eye(rows, rows - cols, -cols))
    complete = np.linalg.qr(a, mode="complete")[0]
    s = np.linalg.svd(a, compute_uv=False)
    if rows > cols:
        assert largest_sine(q, complete[:, cols:]) <= 100 * EPS / (s[-1] / s[0])
        assert np.abs(q.conj().T @ q - np.eye(rows - cols)).max() <= 1e-14
    else:
        assert q.shape == (rows, 0)
    # Q^H x, and Q x, against the complete Q
    x = complex_normal(rng, (rows, 3))
    bound = 1e-13 * np.linalg.norm(x)
    assert np.abs(apply_householder(reflectors, x, adjoint=True)
                  - complete.conj().T @ x).max() <= bound
    assert np.abs(apply_householder(reflectors, x) - complete @ x).max() <= bound


def test_blocks_of_reflectors_apply_as_one(monkeypatch):
    # 243 reflectors in blocks of HOUSEHOLDER_BLOCK, and all in one block
    rng = np.random.default_rng(3)
    a = MATRICES["275 x 243"](rng)
    x = complex_normal(rng, (275, 5))
    assert HOUSEHOLDER_BLOCK < 243
    reflectors, _ = householder(a)
    blocked = [apply_householder(reflectors, x, adjoint) for adjoint in (False, True)]
    monkeypatch.setattr(ia_lab.linalg, "HOUSEHOLDER_BLOCK", 243)
    reflectors, _ = householder(a)
    for adjoint, got in zip((False, True), blocked):
        assert (np.abs(got - apply_householder(reflectors, x, adjoint)).max()
                <= 1e-13 * np.linalg.norm(x))


def short_in_its_last_row(shape):
    """A random stack whose last matrix repeats a column, and whether each
    has full column rank: none of a wide stack, and all but the last of a
    tall or square one."""
    a = complex_normal(np.random.default_rng(11), shape)
    a[-1, :, -1] = a[-1, :, 0]
    return a, [shape[1] >= shape[2]] * (shape[0] - 1) + [False]


def mixed_stack():
    """A stack that mixes rows the certificate decides (1e-6, 3e-8) with
    rows it leaves to the other bound or the SVD, full and short of rank,
    and whether each has full column rank."""
    ratios = [1e-6, 1e-9, 3e-8, 0.0, 1.5e-8]
    return (np.stack([planted(r, seed=t) for t, r in enumerate(ratios)]),
            [True, False, True, False, True])


@pytest.mark.parametrize("shape", [(3, 7, 4), (2, 275, 243), (3, 5, 5), (2, 4, 6), "mixed"])
def test_each_row_of_a_stack_gets_its_bits_alone(shape):
    a, expected = mixed_stack() if shape == "mixed" else short_in_its_last_row(shape)
    x = complex_normal(np.random.default_rng(12), a.shape[:-1] + (2,))
    reflectors, full = householder(a)
    assert full.tolist() == expected
    product, adjoint = apply_householder(reflectors, x), apply_householder(reflectors, x, True)
    for t in range(len(a)):
        for alone, index in ((a[t], t), (a[t:t + 1], slice(t, t + 1))):
            got, full_alone = householder(alone)
            assert np.all(full_alone == full[index])
            assert all(g.tobytes() == r[index].tobytes() for g, r in zip(got, reflectors,
                                                                         strict=True))
            assert apply_householder(got, x[index]).tobytes() == product[index].tobytes()
            assert (apply_householder(got, x[index], True).tobytes()
                    == adjoint[index].tobytes())


def test_a_reduced_column_takes_tau_0_and_the_identity():
    # a real diagonal is upper triangular already: every reflector is the
    # identity, which LAPACK marks with tau 0
    a = np.zeros((2, 5, 3), dtype=complex)
    a[:, :3, :3] = np.diag([1.0, 2.0, 3.0])
    reflectors, full = householder(a)
    assert full.tolist() == [True, True]
    assert not reflectors[1].any()  # W = V diag(tau)
    x = complex_normal(np.random.default_rng(2), (2, 5, 4))
    assert np.array_equal(apply_householder(reflectors, x), x)
    assert np.array_equal(apply_householder(reflectors, x, adjoint=True), x)


def test_a_stack_of_no_matrices():
    reflectors, full = householder(np.zeros((0, 7, 4), dtype=complex))
    assert full.shape == (0,)
    assert apply_householder(reflectors, np.eye(7, 3, -4)).shape == (0, 7, 3)
    assert apply_householder(reflectors, np.zeros((0, 7, 2)), adjoint=True).shape == (0, 7, 2)
    # nor of R wide enough for the bounds
    assert householder(np.zeros((0, 40, 36), dtype=complex))[1].shape == (0,)
    assert has_full_column_rank(np.zeros((0, 40, 36), dtype=complex)).shape == (0,)


def test_a_short_rank_is_read_from_r():
    rng = np.random.default_rng(4)
    a = complex_normal(rng, (3, 9, 4))
    a[1, :, 3] = 2.0 * a[1, :, 1] - a[1, :, 0]
    a[2, :, 2:] = 0.0
    # ranks 4, 3 and 2 of 4 columns
    assert householder(a)[1].tolist() == [True, False, False]


def svd_full(a):
    """The rule the bounds stand in for: whether ``_rank`` of the singular
    values of the R of ``a``'s Householder QR counts every column."""
    h, tau = np.linalg.qr(a, mode="raw")
    r = np.triu(h.swapaxes(-1, -2)[..., :tau.shape[-1], :])
    return _rank(np.linalg.svd(r, compute_uv=False)) == a.shape[-1]


def svd_calls(monkeypatch):
    """The leading (stack) sizes of the np.linalg.svd calls made from here on."""
    calls, svd = [], np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape[0] if a.ndim == 3 else None)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


RATIOS = [0.0, 1e-9, 1e-8, 1.5e-8, 2e-8, 3e-8, 1e-6]


def zero_column(rng):
    a = complex_normal(rng, (50, 40))
    a[:, 17] = 0.0
    return a


# matrices the certificate may or may not decide, at one block's width and
# past it, and those it must leave to the SVD
RULE_CASES = {
    **{f"planted {ratio:g}": lambda rng, ratio=ratio: planted(ratio) for ratio in RATIOS},
    "planted 3e-8, 275 x 243": lambda rng: planted(3e-8, 275, 243),
    "planted 1.5e-8, 33 x 32": lambda rng: planted(1.5e-8, 33, 32),
    "a zero column": zero_column,
    "all zero": lambda rng: np.zeros((40, 36), dtype=complex),
    "wide 32 x 40": lambda rng: complex_normal(rng, (32, 40)),
    "wide 3 x 7": lambda rng: complex_normal(rng, (3, 7)),
    **{f"random {label}": MATRICES[label] for label in MATRICES},
}


@pytest.mark.parametrize("label", list(RULE_CASES))
def test_the_certificate_answers_as_the_svd_rule(label):
    a = RULE_CASES[label](np.random.default_rng(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = householder(a)[1]
    assert full == svd_full(a)


def test_planted_ratios_are_certified_only_above_twice_the_tolerance(monkeypatch):
    stack = np.stack([planted(ratio) for ratio in RATIOS])
    calls = svd_calls(monkeypatch)
    full = householder(stack)[1]
    monkeypatch.undo()
    assert full.tolist() == [svd_full(a) for a in stack]
    assert full.tolist() == [False, False, True, True, True, True, True]
    # one SVD of the rows from 1e-8 to below 3e-8 (2e-8 sits on the
    # certificate's bound itself, where rounding decides), none of the rows
    # a bound decides: the certificate 3e-8 and 1e-6, R's diagonal 0 and
    # 1e-9 (whose least |r_ii| is 4.9e-9 of sigma_max, just under the short
    # bound's 5e-9; a least |r_ii| lies some five times above sigma_min here)
    assert calls in ([3], [2])


def test_a_certified_row_takes_no_svd(monkeypatch):
    a = np.stack([planted(1e-6, seed=t) for t in range(3)])
    calls = svd_calls(monkeypatch)
    assert householder(a)[1].tolist() == [True] * 3
    assert householder(a[0])[1] is True
    assert calls == []


def test_an_r_whose_norm_overflows_takes_the_svd_without_a_warning(monkeypatch):
    a = np.stack([planted(1e-6), planted(1e-6, seed=1)])
    a[1, 0, 0] = 1e300  # R's norm overflows
    calls = svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = householder(a)[1]
    # the power steps overflow too, so neither bound decides it
    assert calls == [1]
    monkeypatch.undo()
    assert full.tolist() == [True, svd_full(a[1])]


# planted sigma_min / sigma_max around both bounds: R's diagonal shows the
# lowest short, the certificate the highest full, and the SVD decides the
# band between, as far as the bounds leave it (a least |r_ii| of these
# lies some five to sixteen times above sigma_min)
BAND = [1e-11, 1e-9, 4e-9, 5e-9, 6e-9, 1e-8, 1.5e-8, 2e-8, 2.1e-8]


@pytest.mark.parametrize("shape", [(275, 243), (33, 32), (48, 48)])
def test_the_two_sided_decision_answers_as_the_svd_rule(monkeypatch, shape):
    stack = np.stack([planted(ratio, *shape, seed=t) for t, ratio in enumerate(BAND)])
    calls = svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = householder(stack)[1]
    assert len(calls) == 1 and calls[0] <= len(stack) - 2
    monkeypatch.undo()
    alone = [householder(a)[1] for a in stack]
    expected = [svd_full(a) for a in stack]
    assert full.tolist() == expected and alone == expected
    assert expected[0] is False and expected[-1] is True


def test_a_non_finite_r_takes_the_svd_without_a_warning(monkeypatch):
    # an infinite entry makes the power steps' estimate not finite, so
    # neither bound decides; the SVD's answer stands
    r = np.triu(complex_normal(np.random.default_rng(6), (40, 40)))
    r[3, 7] = np.inf
    calls = svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = _full_rank(r[None])
    assert calls == [1]
    monkeypatch.undo()
    assert full.tolist() == [_rank(np.linalg.svd(r, compute_uv=False)) == 40]


def column_rank_stacks():
    """(label, stack) of (3, 275, 32) and (2, 33, 32) matrices around the
    tolerance, their columns scaled over six orders, and the three 275 x 32
    precoders of transmitters 2-4 of an L=275 trial."""
    rng = np.random.default_rng(8)
    out = []
    for size, rows in ((3, 275), (2, 33)):
        for lo in range(0, len(BAND), size):
            ratios = (BAND + BAND[:size])[lo:lo + size]
            stack = np.stack([planted(r, rows, 32, seed=lo + t) for t, r in enumerate(ratios)])
            out.append((f"{size} x {rows} x 32 from {ratios[0]:g}", stack))
            out.append((f"{size} x {rows} x 32 from {ratios[0]:g}, scaled",
                        stack * 10.0 ** rng.uniform(-3, 3, size=(size, 1, 32))))
    scheme, _ = SchemeConfig("siso-general", K=4, n=2).build(_trial_seed(1000, 0))
    out.append(("L=275 transmitters 2-4", np.stack(scheme.precoders[1:])))
    return out


def test_has_full_column_rank_answers_as_the_svd_of_the_equilibrated_columns(monkeypatch):
    stacks = column_rank_stacks()
    for label, stack in stacks:
        expected = (_rank(np.linalg.svd(equilibrate_columns(stack), compute_uv=False))
                    == 32).tolist()
        assert has_full_column_rank(stack).tolist() == expected, label
        assert [has_full_column_rank(a) for a in stack] == expected, label
    # the precoders of a trial that builds are decided by the bounds alone
    _, precoders = stacks[-1]
    calls = svd_calls(monkeypatch)
    assert has_full_column_rank(precoders).tolist() == [True] * 3
    assert calls == []


def test_the_benchmark_pool_builds_rank_as_the_svd_rule(monkeypatch):
    # transmitter 1's 275 x 243 precoders of trial 0 of the large benchmark
    # workload's pools: sweep roots 1000-1005 under the default law and
    # 2000-2005 under the unit law. The certificate decides all but root
    # 1004's, whose sigma_min / sigma_max of 2.2e-9 fails the build
    ranked = []
    factor = ia_lab.schemes.householder

    def keeping(e):
        reflectors, full = factor(e)
        ranked.append((e, full))
        return reflectors, full

    monkeypatch.setattr(ia_lab.schemes, "householder", keeping)
    calls = svd_calls(monkeypatch)
    for config, base in ((SchemeConfig("siso-general", K=4, n=2), 1000),
                         (SchemeConfig("siso-general", K=4, n=2, a_min=1.0, a_max=1.0), 2000)):
        collections.deque(config.build_trials([_trial_seed(base + i, 0) for i in range(6)]), 0)
    monkeypatch.undo()
    e = np.concatenate([e for e, _ in ranked])
    full = np.concatenate([f for _, f in ranked])
    assert e.shape == (12, 275, 243)
    assert full.tolist() == [svd_full(a) for a in e]
    assert full.tolist() == [True] * 4 + [False] + [True] * 7
    # the bounds on R decide every build: root 1004's R, whose least
    # |r_ii| is 2.84e-9 of sigma_max, takes no values SVD, and the other
    # transmitters' full-rank checks (three 275 x 32 precoders a trial)
    # take none either
    assert calls == []


# default-law siso-general K=4 n=2 seeds whose transmitter 1 precoder fails
# the build with sigma_min / sigma_max of 3.3e-9 to 8.7e-9 and a least
# |r_ii| 1.2 to 1.8 times sigma_min, which R's diagonal cannot show short.
# Power steps on R^-1 bound sigma_min within 4% for all of them, so every
# one lies under SHORT_MARGIN RANK_TOL and is shown short with no values
# SVD, the six at 5.5e-9 to 8.7e-9 (3, 9, 21, 32, 37 and 39) too
BAND_BUILDS = {3: 0, 6: 0, 9: 0, 21: 0, 26: 0, 32: 0, 34: 0, 36: 0, 37: 0, 39: 0}


def test_power_steps_on_the_inverse_show_band_builds_short(monkeypatch):
    config = SchemeConfig("siso-general", K=4, n=2)
    shapes, svd = [], np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    taken = {}
    for seed in BAND_BUILDS:
        shapes.clear()
        with pytest.raises(ia_lab.errors.SingularChannelError):
            config.build(seed)
        taken[seed] = sum(shape[-1] == 243 for shape in shapes)
    assert taken == BAND_BUILDS


@pytest.mark.parametrize("d", [48, 243])
@pytest.mark.parametrize("ratio", [0.85, 0.95, 1.05])
def test_the_margin_decides_a_build_as_the_svd_rule(monkeypatch, ratio, d):
    # an R planted with sigma_min / sigma_max at ``ratio`` RANK_TOL, over
    # SHORT_MARGIN = 0.9: shown short with no SVD, left to the SVD, or
    # never shown short
    r = np.linalg.qr(planted(ratio * RANK_TOL, d, d, seed=d), mode="r")
    calls = svd_calls(monkeypatch)
    assert _full_rank(r[None]).tolist() == [ratio > 1]
    assert calls == ([] if ratio < SHORT_MARGIN else [1])
    monkeypatch.undo()
    assert svd_full(r) == (ratio > 1)


def full_u_route(monkeypatch):
    """Make receiver 1 take the full-U SVD for every row, as it did before
    the reflectors: every span it factors reads as short of rank, so each
    row keeps ``complement_and_rank``."""
    factor = ia_lab.receiver.householder

    def short(matrix):
        reflectors, full = factor(matrix)
        return reflectors, np.zeros_like(full)

    monkeypatch.setattr(ia_lab.receiver, "householder", short)


def counted_householder(monkeypatch):
    """The stack sizes of receiver 1's Householder QRs from here on."""
    calls, factor = [], ia_lab.receiver.householder

    def counting(matrix):
        calls.append(len(matrix))
        return factor(matrix)

    monkeypatch.setattr(ia_lab.receiver, "householder", counting)
    return calls


# siso-k3 n=1, 3, 5 and siso-general K=4 n=1 at seeds 0-19, and the two
# L=275 seeds of test_shared_pass.py's LARGE_GOLDEN
ROUTES = {
    **{f"siso-k3 n={n}": (SchemeConfig("siso-k3", n=n), range(20)) for n in (1, 3, 5)},
    "siso-general K=4 n=1": (SchemeConfig("siso-general", K=4, n=1), range(20)),
    "siso-general K=4 n=2 unit": (
        SchemeConfig("siso-general", K=4, n=2, a_min=1.0, a_max=1.0), [0]),
    "siso-general K=4 n=2 default": (
        SchemeConfig("siso-general", K=4, n=2), [_trial_seed(1002, 0)]),
}


# L=275's receiver 1 takes its rates from its gains on the first grid, and
# from R's inverse on the second
ROUTE_GRIDS = ([1e2, 1e8], [1e16, 1e20])


def route_rates(scheme, ext):
    """One trial's rates from the pass on each grid of ROUTE_GRIDS, side by
    side, or None where it fails."""
    out = [_pass(scheme[None], ext, rhos) for rhos in ROUTE_GRIDS]
    return np.hstack([rates[0] for *_, rates in out]) if out[0][2][0] else None


@pytest.mark.parametrize("label", list(ROUTES))
def test_the_reflector_route_agrees_with_the_full_u_route(monkeypatch, label):
    # the reflectors at every size, the spans below REFLECTOR_ROWS rows too
    monkeypatch.setattr(ia_lab.receiver, "REFLECTOR_ROWS", 0)
    config, seeds = ROUTES[label]
    built = [config.build(seed) for seed in seeds]
    reports = [check_alignment(*trial).to_dict() for trial in built]
    rates = [route_rates(scheme, ext) for scheme, ext in built]
    full_u_route(monkeypatch)
    for (scheme, ext), report, got in zip(built, reports, rates, strict=True):
        assert check_alignment(scheme, ext).to_dict() == report
        expected = route_rates(scheme, ext)
        assert (got is None) == (expected is None)
        if expected is None:
            continue  # no rates are set for a failing trial
        # the smallest gains of the L=275 receivers lie 15 orders below
        # their largest, where either route resolves only their leading
        # digits; what that moves of a rate stays far inside 1e-12
        assert np.all(np.abs(got - expected) <= 1e-12 * expected)


def assert_mixed_stack(monkeypatch, config, seeds, broken_column, image_ranks, factored):
    """Stack the trials of ``seeds``, zero transmitter 2's ``broken_column``
    in trial 1, so that receiver 1's image there is short of rank, and check
    that receiver 1's ``image_ranks`` are read per trial, that its Householder
    QRs take the stack sizes ``factored``, that only trial 1 fails, and that
    every other trial's rates are bit for bit those it gets alone."""
    scheme, ext = stacked([config.build(seed) for seed in seeds])
    v2 = scheme.precoders[1].copy()
    v2[1, :, broken_column] = 0.0
    # transmitter 1's complement, which the build kept, stays
    broken = replaced(scheme, (scheme.precoders[0], v2, *scheme.precoders[2:]))
    calls = counted_householder(monkeypatch)
    ranks, _, passed, _ = _pass(broken, ext)
    assert ranks[1, 0].tolist() == image_ranks and calls == factored
    assert passed.tolist() == [t != 1 for t in range(len(seeds))]
    rhos = [1e2, 1e8]
    rates = zf_rates(broken, ext, rhos)
    assert rates[1] is None
    for t in range(len(seeds)):
        if t != 1:
            [alone] = zf_rates(scheme[t], ext[t], rhos)
            assert rates[t].tobytes() == alone.tobytes()


def test_the_route_is_decided_per_row(monkeypatch):
    # siso-general K=4 n=2 (L=275), unit law: receiver 1's 275 x 32 image
    # takes one Householder QR for the stack of three. Trial 1's image is
    # short of rank and takes the full-U SVD; the other trials keep the
    # reflectors
    config = SchemeConfig("siso-general", K=4, n=2, a_min=1.0, a_max=1.0)
    assert_mixed_stack(monkeypatch, config, range(3), 0, [32, 31, 32], [3])


def test_the_route_is_decided_per_row_of_one_stream_receivers(monkeypatch):
    # siso-general K=4 n=1: receiver 1's image is transmitter 2's one
    # column, and receivers 2..4 take one stream each, whose products are
    # matrix-vector ones that round by the layout they read. The cut-off is
    # put at its 33 rows, so the stack takes the reflectors; trial 1's
    # column is zeroed, so its image is short of rank and takes the full-U
    # SVD
    monkeypatch.setattr(ia_lab.receiver, "REFLECTOR_ROWS", 33)
    assert_mixed_stack(monkeypatch, SchemeConfig("siso-general", K=4, n=1), range(4), 0,
                       [1, 0, 1, 1], [4])


def test_a_span_below_the_cut_off_takes_no_householder(monkeypatch):
    # siso-k3 n=3: receiver 1's 7 x 3 image has fewer than REFLECTOR_ROWS
    # rows, so every trial takes the full-U SVD, grouped by rank
    assert 7 < ia_lab.receiver.REFLECTOR_ROWS
    assert_mixed_stack(monkeypatch, SchemeConfig("siso-k3", n=3), range(3), 2,
                       [3, 2, 3], [])
