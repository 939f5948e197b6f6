"""Rates and verdicts of wide receivers from one QR of the projected channel.

A row of QR_STREAMS or more streams (L=275's receiver 1, of 243) takes its
verdict and rates from G = QR, G its projected effective channel: with X =
R^-1, sum_i log2(1 + p g_i) = d log2 p + 2 sum_i log2 |r_ii| + log2 det(I +
X X^H / p), whose last term is S / ln 2 (S = ||X||_F^2 / p) where its error
bound S^2 / (2 ln 2) is at most EXPANSION_TOL of the rate, else taken from
the determinant of p I + X X^H while S <= DETERMINANT_BOUND. A row above
that bound at the grid's least power, or without X, takes the values SVD,
as a narrower row does.

The oracles are the dense receivers of ``conftest.dense_receivers``, whose
gains give ``conftest.dense_rates``, and the pass itself with every row sent
to the values SVD. Every trial of a stack gets the bits it gets alone, whichever
form each of its rows takes.
"""

import warnings

import numpy as np
import pytest

import ia_lab.receiver
from ia_lab import SchemeConfig, check_alignment, zf_rates
from ia_lab.evaluation import TRIAL_ERRORS, _trial_seed
from ia_lab.rates import DETERMINANT_BOUND, EXPANSION_TOL, LN2, QR_STREAMS, _Factored, _log_det
from ia_lab.receiver import zf_ok

from conftest import dense_rates, dense_receivers, stacked

LARGE = {
    "default": SchemeConfig("siso-general", K=4, n=2),
    "unit": SchemeConfig("siso-general", K=4, n=2, a_min=1.0, a_max=1.0),
}
# the sweep roots of the large benchmark workload's pool, by law; its trials
# are each root's first
POOL = {"default": range(1000, 1006), "unit": range(2000, 2006)}
HIGH = [10.0 ** (s / 10.0) for s in (160.0, 180.0, 200.0)]


def pool_trial(law, root):
    return LARGE[law].build(_trial_seed(root, 0))


def svd_route(monkeypatch):
    """Send every row of the pass with rates to the values SVD."""
    monkeypatch.setattr(ia_lab.receiver, "QR_STREAMS", np.inf)


def test_the_wide_rows_are_l275s_receiver_1():
    # and not the 32-stream receivers, of L=275 and of siso-general K=4 n=1
    scheme, _ = pool_trial("unit", 2000)
    assert [d >= QR_STREAMS for d in scheme.stream_counts] == [True, False, False, False]
    scheme, _ = SchemeConfig("siso-general", K=4, n=1).build(0)
    assert max(scheme.stream_counts) == 32 < QR_STREAMS


@pytest.mark.parametrize("law", list(LARGE))
def test_pool_rates_agree_with_the_dense_oracle_and_the_svd_route(monkeypatch, law):
    # per-user rates within 1e-11 relative of the dense oracle, whose
    # complement of all the interference rounds apart from the structured
    # one (the 32-stream receivers, which take the values SVD either way,
    # read up to 5e-12), and within 1e-12 of the pass's own values SVD
    built = []
    for root in POOL[law]:
        try:
            built.append(pool_trial(law, root))
        except TRIAL_ERRORS:
            continue
    got = [zf_rates(scheme, ext, HIGH)[0] for scheme, ext in built]
    svd_route(monkeypatch)
    for (scheme, ext), rates in zip(built, got, strict=True):
        dense = dense_receivers(scheme, ext)
        ok = (all(zf_ok(d, rank, joint) for d, (rank, joint, _)
                  in zip(scheme.stream_counts, dense))
              and all(r.ok for r in check_alignment(scheme, ext).relations))
        assert (rates is not None) == ok
        [reference] = zf_rates(scheme, ext, HIGH)
        assert (reference is None) == (rates is None)
        if rates is None:
            continue
        expected = dense_rates(scheme, ext, HIGH)
        assert np.all(np.abs(rates - expected) <= 1e-11 * expected)
        assert np.all(np.abs(rates - reference) <= 1e-12 * reference)
    # under the default law, root 1004's build and root 1005's receiver 1 fail
    assert [rates is None for rates in got] == ([False] * 4 + [True] if law == "default"
                                                else [False] * 6)


def counted(monkeypatch, name):
    """Shapes of the calls to ``np.linalg.<name>`` from here on."""
    calls, original = [], getattr(np.linalg, name)

    def call(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, call)
    return calls


def test_a_mixed_stack_gives_each_trial_its_bits_alone(monkeypatch):
    # at 150 and 200 dB, receiver 1 of default-law root 1000 sits above
    # the determinant bound at 150 dB and takes the values SVD; root 1001's
    # takes a determinant at 150 dB and the first-order term at 200 dB;
    # root 1005's fails, and unit-law root 2000's takes the first-order
    # term at both. Receivers 2..4, of 32 streams, take the values SVD
    pairs = [pool_trial("default", root) for root in (1000, 1001, 1005)]
    pairs.append(pool_trial("unit", 2000))
    scheme, ext = stacked(pairs)
    rhos = [10.0 ** 15, 10.0 ** 20]
    svds, determinants = counted(monkeypatch, "svd"), counted(monkeypatch, "slogdet")
    rates = zf_rates(scheme, ext, rhos)
    assert [r is None for r in rates] == [False, False, True, False]
    # one values SVD of root 1000's channel and one verdict SVD of root
    # 1005's; one determinant, of root 1001's at 150 dB
    assert svds.count((1, 243, 243)) == 2 and determinants == [(1, 243, 243)]
    for t, (one, one_ext) in enumerate(pairs):
        svds.clear()
        determinants.clear()
        [alone] = zf_rates(one, one_ext, rhos)
        assert (alone is None) == (rates[t] is None)
        if alone is not None:
            assert alone.tobytes() == rates[t].tobytes()
        assert determinants == ([(1, 243, 243)] if t == 1 else [])
        assert svds.count((1, 243, 243)) == (1 if t in (0, 2) else 0)


@pytest.mark.parametrize("grid", [[0.0, 1e16, 1e20], [], [1e4]],
                         ids=["power 0", "empty", "40 dB"])
def test_a_low_or_empty_grid_takes_the_values_svd(monkeypatch, grid):
    # S = ||X||_F^2 / p exceeds the bound at the grid's least power, or the
    # grid has none: every row takes the values SVD, bit for bit as the pass
    # that sends every row there, with no warning and no nan or -inf
    built = [pool_trial("default", 1000), pool_trial("unit", 2000)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [zf_rates(scheme, ext, grid)[0] for scheme, ext in built]
    svd_route(monkeypatch)
    for (scheme, ext), rates in zip(built, got, strict=True):
        assert rates.shape == (len(grid), 4) and np.all(np.isfinite(rates))
        assert rates.tobytes() == zf_rates(scheme, ext, grid)[0].tobytes()
        if grid and grid[0] == 0.0:
            assert rates[0].tolist() == [0.0] * 4


def planted_channel(d, spread, seed=0):
    """A (1, d, d) channel whose singular values spread over ``spread``
    orders, and its gains."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    g = (u * np.logspace(0, -spread, d)) @ v
    return g[None], np.linalg.svd(g[None], compute_uv=False) ** 2


@pytest.mark.parametrize("spread", [2, 6])
def test_the_factored_log_det_keeps_to_the_gains(spread):
    # from the least power at the determinant bound up: the determinant
    # first, the first-order term once its error bound falls under
    # EXPANSION_TOL of the rate; one grid of them all, and each point alone
    g, gains = planted_channel(96, spread)
    norms = np.ones((1, 96))
    x2 = _Factored(g, norms).x2[0]
    p = x2 / DETERMINANT_BOUND * np.logspace(0, 12, 13)
    got = _Factored(g, norms).rates([0], p)[0]
    expected = _log_det(gains, p)[0]
    s = x2 / p
    first = s * s / (2 * LN2) <= EXPANSION_TOL * got
    assert not first[0] and first[-1]
    assert np.all(np.abs(got - expected) <= 1e-12 * expected)
    alone = [_Factored(g, norms).rates([0], p[j:j + 1])[0, 0] for j in range(len(p))]
    assert alone == got.tolist()
    # a point below the bound sends the row to the values SVD
    low = np.concatenate([[x2 / 2], p])
    assert _Factored(g, norms).rates([0], low).tobytes() == _log_det(gains, low).tobytes()
