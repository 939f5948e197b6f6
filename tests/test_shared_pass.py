"""The receiver pass behind both entry points, ``check_alignment`` and
``zf_rates(scheme, ext, rhos)``: one stack of link products and one
interference SVD per receiver give both the receiver checks and the
zero-forcing gains.

The checks of the pass with rates must equal ``check_alignment``'s
receivers, and the grid rates of ``zf_rates`` must equal its rates at each
point alone bit for bit. Golden SHA-256 digests pin both against silent
drift. The report digests were recorded with the implementation that ran
``check_alignment`` and then one separate complement SVD per receiver; the
siso rate digests were re-recorded when siso receivers 2..K took their
complements from transmitter 1's precoder, and again when receiver 1 took
its complement from transmitter 2's image alone, and the default-law L=275
report when zero forcing came to be decided on the projected desired rank;
the siso-general rates once more when transmitter 1's complement came from
a complete QR in place of a full-U SVD; and every rate digest but designed
K=10's when every receiver took its complement from one transmitter's
image, decomposed by the full-U SVD below REFLECTOR_ROWS rows.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import ia_lab.receiver
from ia_lab import SchemeConfig, check_alignment, snr_sweep, zf_rates
from ia_lab.linalg import complement_and_rank, equilibrate_columns
from ia_lab.evaluation import BuiltStack, _trial_seed
from ia_lab.receiver import QR_STREAMS, _pass

from conftest import interference_at, load, pass_checks, stacked, steer, without_desired

CONFIGS = {
    "siso-k3 n=1": SchemeConfig("siso-k3", n=1),
    "siso-k3 n=3": SchemeConfig("siso-k3", n=3),
    "siso-general K=4 n=1": SchemeConfig("siso-general", K=4, n=1),
    "mimo M=2": SchemeConfig("mimo", M=2),
    "mimo M=3": SchemeConfig("mimo", M=3),
    "mimo M=4": SchemeConfig("mimo", M=4),
    "designed K=3": SchemeConfig("designed", K=3),
    "designed K=10": SchemeConfig("designed", K=10),
}
SEEDS = range(20)
SNR_DB = tuple(float(s) for s in range(0, 201, 20))
RHOS = [10.0 ** (s / 10.0) for s in SNR_DB]

# per configuration, over seeds 0-19 in order: SHA-256 of each report's
# json.dumps(report.to_dict(), sort_keys=True) plus a newline, and SHA-256
# of the float64 bytes of each passing seed's (grid, K) rates; every seed of
# these configurations passes
GOLDEN = {
    "siso-k3 n=1": (
        "6c75cfab7f3211ce623648a5c4c4a197c2368d05b72b09b284dffc55fb39ecbf",
        "774597373c7f96c50c44abde563deeae95e2fa1a79e4d39f27dd7dff3cc2658b"),
    "siso-k3 n=3": (
        "22dd922553dad7e312f788defe68c7a1788ba57c218db60358e220f2b5663ca3",
        "a189ac6e71646481bd820d08cc7bd495d9b8734114f22fa409a8877e35774dd6"),
    "siso-general K=4 n=1": (
        "9b9fd2c1dbc82a3df8803de81bc9757ef71d60f9e64aad968f6b639de058dc36",
        "010c1f4239d072443b77bf3aaba8f789a751421fea7b6ec5539210407084c96a"),
    "mimo M=2": (
        "a1170085719ff7b90860508905ebadcfb6b552ce7fe85956920103159f416fe7",
        "45b268d2c9aeced914d4855e80610c26292445ae4057509c3c8587bad57323b9"),
    "mimo M=3": (
        "e1c713ecafa3f431f5a9d9197bb7b2b078f464c885853aa64f6f28e94ff5f67a",
        "c85c6d2a1d086945338b9c19ece37606cdf2564c18c289886cbb8789142fe325"),
    "mimo M=4": (
        "a95c6533624a0525db797d175354dd7f14068e6417d10ef13529e012bf72f064",
        "669080d57e431f8cfacc3611c0c485acb0a660ab3b6fd3183fdc6c4ba6288386"),
    "designed K=3": (
        "d848626af66252b29a9026ac55d2d5c456fe091b2129041db9ea1b7c0f3b460e",
        "e9888529d0a3b27dc5637e98483c864ca7d954bf1da1c7e3123c3b7bf694d581"),
    "designed K=10": (
        "ca29390304bbe8e9c56b51919d7ad84cc8497d8db6827a49701bb6b1b17d145b",
        "6b17c0dd6a40b8fd160d8e52f0b84413493632d5329c481f4e8779bed3fc884d"),
}


@dataclasses.dataclass
class Trial:
    scheme: object
    ext: object
    receivers: tuple  # checks of the pass with rates
    rates: object  # zf_rates over RHOS; None when a check or relation fails


@pytest.fixture(scope="module", params=list(CONFIGS))
def trials(request):
    config = CONFIGS[request.param]
    out = []
    for seed in SEEDS:
        scheme, ext = config.build(seed)
        ranks, _, _, _ = _pass(scheme[None], ext, RHOS)
        receivers = pass_checks(scheme, ext, ranks)
        [rates] = zf_rates(scheme, ext, RHOS)
        out.append(Trial(scheme, ext, receivers, rates))
    return request.param, out


def report_json(report) -> bytes:
    return json.dumps(report.to_dict(), sort_keys=True).encode() + b"\n"


def test_pass_report_equals_check_alignment(trials):
    _, rows = trials
    for t in rows:
        report = check_alignment(t.scheme, t.ext)
        assert t.receivers == without_desired(report.receivers)
        assert (t.rates is None) == (not report.passed)


def passing(rows):
    return [t for t in rows if t.rates is not None]


def test_grid_rates_equal_per_point_zf_rates(trials):
    _, rows = trials
    for t in passing(rows):
        for rho, row in zip(RHOS, t.rates.tolist()):
            [one_point] = zf_rates(t.scheme, t.ext, [rho])
            assert one_point.tolist() == [row]


def test_one_point_rates_equal_grid_rates(trials):
    # the pass's rates at one point at a time: every receiver of these
    # configurations has fewer than QR_STREAMS streams, so its rates come
    # from its gains by the values SVD's formula, point by point
    _, rows = trials
    assert all(max(t.scheme.stream_counts) < QR_STREAMS for t in rows)
    for t in passing(rows):
        for rho, row in zip(RHOS, t.rates.tolist()):
            _, _, passed, rates = _pass(t.scheme[None], t.ext, [rho])
            assert passed[0] and rates[0].tolist() == [row]


def test_interference_rank_is_dim_minus_complement(trials):
    _, rows = trials
    for t in rows:
        for rx in t.receivers:
            interference = interference_at(t.scheme, t.ext, rx.receiver)
            basis, rank = complement_and_rank(equilibrate_columns(interference))
            assert rank == rx.interference_rank
            assert rx.interference_rank == t.ext.dim - basis.shape[1]


def test_reports_and_rates_match_golden_digests(trials):
    label, rows = trials
    from_check, from_pass = hashlib.sha256(), hashlib.sha256()
    rates = hashlib.sha256()
    for t in rows:
        report = check_alignment(t.scheme, t.ext)
        from_check.update(report_json(report))
        # the same report with the receiver checks of the pass with rates,
        # which leaves the desired ranks to check_alignment
        from_pass.update(report_json(dataclasses.replace(report, receivers=tuple(
            dataclasses.replace(check, desired_rank=rx.desired_rank)
            for check, rx in zip(t.receivers, report.receivers)))))
    for t in passing(rows):
        rates.update(t.rates.tobytes())
    reports_digest, rates_digest = GOLDEN[label]
    assert from_check.hexdigest() == reports_digest
    assert from_pass.hexdigest() == reports_digest
    assert rates.hexdigest() == rates_digest


# siso-general K=4 n=2 (L=275), whose subset relations take 32 columns
# against a pool of 243: SHA-256 of the report_json of check_alignment's
# report, under the unit law (seed 0) and the default law (the trial of
# sweep root 1002, whose receivers 2 and 4 failed the joint-rank rule);
# both pass
LARGE_GOLDEN = {
    "unit": (SchemeConfig("siso-general", K=4, n=2, a_min=1.0, a_max=1.0), 0,
             "260079a4251749cc69783f78c8efe3de338680bf8523b7d14d4e5346f94270cf"),
    "default": (SchemeConfig("siso-general", K=4, n=2), _trial_seed(1002, 0),
                "674348400395476e6e9f9a90bd656b340ff4838573b777c22d4bcd09211ddcbb"),
}


@pytest.mark.parametrize("law", list(LARGE_GOLDEN))
def test_large_reports_match_golden_digests(law):
    config, seed, digest = LARGE_GOLDEN[law]
    report = check_alignment(*config.build(seed))
    assert report.passed
    assert hashlib.sha256(report_json(report)).hexdigest() == digest


class PoisonedNumpy:
    """numpy, with ``empty`` filling its arrays with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype=dtype)


def poisoned_stacks(monkeypatch):
    """The stacked trials of every configuration of scripts/output_digest.py,
    over its seeds, and the two L=275 golden trials."""
    digest = load(monkeypatch, "output_digest")
    out = []
    for config in digest.CONFIGS:
        large = config.family == "siso-general" and config.n == 2
        near = config.family == "siso-k3" and config.n >= 7
        seeds = range(2 if large else 16 if near else 4)
        out += [stack.trial for stack in config.build_trials(seeds)
                if len(stack.trial[0].precoders[0])]
    return out + [stacked([config.build(seed)]) for config, seed, _ in LARGE_GOLDEN.values()]


@pytest.mark.parametrize("with_gains", [False, True])
def test_the_pass_reads_no_product_column_it_does_not_form(monkeypatch, with_gains):
    # a receiver's array of products holds only the columns its checks,
    # rates and relations read; filled with NaN, the others change nothing.
    # On this grid L=275's receiver 1 takes its rates from R's inverse, by
    # the determinant of p I + X X^H at 160 dB under the default law
    stacks = poisoned_stacks(monkeypatch)
    rhos = [1e16, 1e20] if with_gains else None
    expected = [_pass(scheme, ext, rhos) for scheme, ext in stacks]
    monkeypatch.setattr(ia_lab.receiver, "np", PoisonedNumpy())
    for (scheme, ext), (ranks, residuals, passed, rates) in zip(stacks, expected, strict=True):
        got_ranks, got_residuals, got_passed, got_rates = _pass(scheme, ext, rhos)
        assert np.array_equal(got_ranks, ranks)
        assert got_residuals.tobytes() == residuals.tobytes()
        assert got_passed.tolist() == passed.tolist()
        assert (rates is None) == (got_rates is None) == (not with_gains)
        if with_gains:
            assert got_rates[passed].tobytes() == rates[passed].tobytes()


def corrupted_k3(seed=7):
    """A siso-k3 scheme whose transmitter 2 precoder is steered onto
    receiver 1's desired signal, so receiver 1's check fails."""
    scheme, ext = SchemeConfig("siso-k3", n=1).build(seed)
    return steer(scheme, ext), ext


def test_no_gains_after_a_failed_receiver_check(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(ia_lab.receiver, name)

        def call(matrix):
            calls.append((name, matrix.shape))
            return original(matrix)
        return call

    scheme, ext = corrupted_k3()
    report = check_alignment(scheme, ext)
    # receiver 1 decomposes transmitter 2's image, 3 x 1, by one full-U SVD:
    # it has fewer than REFLECTOR_ROWS rows, so it takes no Householder QR
    for name in ("complement_and_rank", "householder"):
        monkeypatch.setattr(ia_lab.receiver, name, counting(name))
    ranks, _, passed, _ = _pass(scheme[None], ext, RHOS)
    receivers = pass_checks(scheme, ext, ranks)
    assert not passed[0] and len(receivers) == 1 and not receivers[0].ok
    # receiver 1 failed, so the pass stops there: no ranks and no complement
    # for 2 and 3
    assert np.all(ranks[:, 1:] == -1) and calls == [("complement_and_rank", (1, 3, 1))]
    assert receivers == without_desired(report.receivers[:1])
    assert zf_rates(scheme, ext, RHOS) == [None]
    assert len(calls) == 2


class CorruptedConfig:
    K = 3

    def build(self, seed):
        return corrupted_k3(seed)

    def build_trials(self, seeds):
        # separately built trials, stacked
        seeds = tuple(seeds)
        return [BuiltStack(seeds, tuple(range(len(seeds))),
                           stacked([self.build(seed) for seed in seeds]))]


def test_failed_receiver_check_becomes_failure_rows():
    table = snr_sweep(CorruptedConfig(), [60, 80], trials=2, seed=0)
    assert len(table.records) == 4
    assert all(r.status == "failed" and r.rates is None for r in table.records)
