"""Rates and verdicts of wide receivers from one QR of the projected channel.

A row of QR_STREAMS or more streams (L=275's receiver 1, of 243) takes its
verdict and rates from G = QR, G its projected effective channel. Bounds
from X = R^-1 decide the verdict: certified full where 1 / ||X||_F clears
twice the tolerance, short where an upper bound on the equilibrated least
singular value falls under SHORT_MARGIN RANK_TOL. The rates are sum_i
log2(1 + p g_i) = d log2 p + 2 sum_i log2 |r_ii| + log2 det(I + X X^H / p),
whose last term is S / ln 2 (S = ||X||_F^2 / p) where its error bound
S^2 / (2 ln 2) is at most EXPANSION_TOL of the rate, else the expansion on
a block of X's columns where its own bound is, while S <= DETERMINANT_BOUND.
A row above that bound at the grid's least power, a row the expansion
misses, and a row without X take the values SVD, as a narrower row does.

The oracles are the dense receivers of ``conftest.dense_receivers``, whose
gains give ``conftest.dense_rates``, and the pass itself with every row sent
to the values SVD. Every trial of a stack gets the bits it gets alone, whichever
form each of its rows takes.
"""

import warnings

import numpy as np
import pytest

import ia_lab.rates
import ia_lab.receiver
from ia_lab import SchemeConfig, check_alignment, zf_rates
from ia_lab.evaluation import TRIAL_ERRORS, _trial_seed, snr_sweep
from ia_lab.linalg import RANK_TOL, SHORT_MARGIN
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


def counted_blocks(monkeypatch):
    """The number of powers each expansion on a block of columns takes,
    from here on."""
    calls, original = [], ia_lab.rates._expansion

    def call(x, x2, p, width):
        if width:
            calls.append(len(p))
        return original(x, x2, p, width)

    monkeypatch.setattr(ia_lab.rates, "_expansion", call)
    return calls


def test_a_mixed_stack_gives_each_trial_its_bits_alone(monkeypatch):
    # at 150 and 200 dB, receiver 1 of default-law root 1000 sits above
    # the determinant bound at 150 dB and takes the values SVD; root 1001's
    # takes the block expansion at 150 dB and the first-order term at 200
    # dB; root 1005's is shown short, and unit-law root 2000's takes the
    # first-order term at both. Receivers 2..4, of 32 streams, take the
    # values SVD
    pairs = [pool_trial("default", root) for root in (1000, 1001, 1005)]
    pairs.append(pool_trial("unit", 2000))
    scheme, ext = stacked(pairs)
    rhos = [10.0 ** 15, 10.0 ** 20]
    svds, determinants = counted(monkeypatch, "svd"), counted(monkeypatch, "slogdet")
    blocks = counted_blocks(monkeypatch)
    rates = zf_rates(scheme, ext, rhos)
    assert [r is None for r in rates] == [False, False, True, False]
    # one values SVD, of root 1000's channel, and no verdict SVD; one block,
    # of root 1001's at 150 dB, and no d x d determinant
    assert svds.count((1, 243, 243)) == 1 and blocks == [1]
    assert (1, 243, 243) not in determinants
    for t, (one, one_ext) in enumerate(pairs):
        svds.clear()
        blocks.clear()
        [alone] = zf_rates(one, one_ext, rhos)
        assert (alone is None) == (rates[t] is None)
        if alone is not None:
            assert alone.tobytes() == rates[t].tobytes()
        assert blocks == ([1] if t == 1 else [])
        assert svds.count((1, 243, 243)) == (1 if t == 0 else 0)


def test_the_pool_takes_no_d_by_d_svd_or_determinant(monkeypatch):
    # the large benchmark workload's sweeps: no wide row takes a values or
    # verdict SVD, nor a 243 x 243 determinant, and every trial keeps its
    # status; root 1004's build and root 1005's receiver 1 fail
    svds, determinants = counted(monkeypatch, "svd"), counted(monkeypatch, "slogdet")
    statuses = {}
    for law, roots in POOL.items():
        for root in roots:
            table = snr_sweep(LARGE[law], (160.0, 180.0, 200.0), 1, root)
            statuses[root] = {record.status for record in table.records}
    assert [shape for shape in svds + determinants if shape[-2:] == (243, 243)] == []
    assert statuses == {**{root: {"ok"} for root in (1000, 1001, 1002, 1003)},
                        1004: {"failed"}, 1005: {"failed"},
                        **{root: {"ok"} for root in POOL["unit"]}}


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


def planted_channel(values, seed=0):
    """A (1, d, d) channel of singular values ``values`` between random
    unitary bases, and its gains."""
    d = len(values)
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    v = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    g = (u * values) @ v
    return g[None], np.linalg.svd(g[None], compute_uv=False) ** 2


@pytest.mark.parametrize("spread", [2, 6])
def test_the_factored_log_det_keeps_to_the_gains(monkeypatch, spread):
    # 32 weak directions, ``spread`` orders down to 1e-6, among 96 of 1:
    # from the least power at the determinant bound up, the expansion on
    # the block first, the first-order term once its error bound falls
    # under EXPANSION_TOL of the rate; one grid of them all, and each point
    # alone
    g, gains = planted_channel(np.r_[np.ones(64), np.logspace(spread - 6, -6, 32)])
    norms = np.ones((1, 96))
    x2 = _Factored(g, norms).x2[0]
    p = x2 / DETERMINANT_BOUND * np.logspace(0, 12, 13)
    blocks = counted_blocks(monkeypatch)
    got = _Factored(g, norms).rates([0], p)[0]
    expected = _log_det(gains, p)[0]
    s = x2 / p
    first = s * s / (2 * LN2) <= EXPANSION_TOL * got
    assert not first[0] and first[-1]
    assert blocks == [np.count_nonzero(~first)]
    assert np.all(np.abs(got - expected) <= 1e-12 * expected)
    alone = [_Factored(g, norms).rates([0], p[j:j + 1])[0, 0] for j in range(len(p))]
    assert alone == got.tolist()
    # a point below the bound sends the row to the values SVD
    low = np.concatenate([[x2 / 2], p])
    assert _Factored(g, norms).rates([0], low).tobytes() == _log_det(gains, low).tobytes()


def test_a_row_the_block_misses_takes_the_values_svd(monkeypatch):
    # 96 directions spread evenly over two orders: at S = 1 the 64 the
    # block leaves out hold too much for its error bound, so the row takes
    # the values SVD at every point, bit for bit
    g, gains = planted_channel(np.logspace(0, -2, 96))
    norms = np.ones((1, 96))
    x2 = _Factored(g, norms).x2[0]
    p = x2 / DETERMINANT_BOUND * np.logspace(0, 12, 13)
    blocks = counted_blocks(monkeypatch)
    assert _Factored(g, norms).rates([0], p).tobytes() == _log_det(gains, p).tobytes()
    assert len(blocks) == 1


def planted_triangle(ratio, d, seed=0):
    """The upper triangular R of a d x d matrix with sigma_max 1 and
    sigma_min ``ratio`` RANK_TOL, its other singular values at 1e-4."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            for _ in range(2))
    s = np.r_[1.0, np.full(d - 2, 1e-4), ratio * RANK_TOL]
    return np.linalg.qr((u * s) @ v.conj().T, mode="r")


# sigma_min of planted triangles over SHORT_MARGIN = 0.9 times the tolerance
# and the scale it is counted from: shown short, left to the SVD, full
MARGIN_CASES = [0.85, 0.95, 1.05]


def decided(factored, d):
    """Each row's projected rank as ``receiver._check`` reads it, -1 where
    the row is shown short."""
    ranks = np.where(factored.short, -1, d)
    doubtful = np.flatnonzero(~(factored.certified | factored.short)).tolist()
    if doubtful:
        ranks[doubtful] = factored.verdict(doubtful)
    return ranks.tolist()


@pytest.mark.parametrize("d", [64, 243])
@pytest.mark.parametrize("ratio", MARGIN_CASES)
def test_the_margin_decides_a_wide_row_as_the_verdict_svd(monkeypatch, ratio, d):
    # R diag(1 / nu) planted with sigma_min at ``ratio`` RANK_TOL: the
    # verdict counts from 1, so the scale of the channel's columns, nu,
    # must not move the decision
    r = planted_triangle(ratio, d, seed=d)
    nu = np.random.default_rng(1).uniform(0.5, 2.0, size=(1, d))
    svds = counted(monkeypatch, "svd")
    ranks = decided(_Factored(r[None] * nu[:, None, :], nu), d)
    assert ranks == [-1 if ratio < SHORT_MARGIN else d - 1 if ratio < 1 else d]
    assert len(svds) == (0 if ratio < SHORT_MARGIN else 1)
