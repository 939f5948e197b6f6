"""Zero forcing is decided on the projected desired channel, siso receivers
take their complements from the alignment the relations verify, and a pass
with gains lets the gains certify a verdict.

Receiver k passes iff its equilibrated desired columns, projected onto the
complement of its interference, keep rank d_k, counted from RANK_TOL times
1. The rule this replaced also asked for a desired rank of d_k and a joint
rank of the interference rank plus d_k, each counted from its own largest
singular value; it is re-implemented here as the oracle. In exact
arithmetic the two agree, so the new rule may only turn receivers that
lose a power-basis rank decision from fail to pass, never the other way.

Every receiver's interference spans one transmitter's image once the
relations hold (``Family.interference_image``): at siso receivers 2..K it
spans H_k1 span(V_1), so its complement is H_k1^{-H} span(V_1)^perp, and
every other receiver takes its complement from the image's columns alone.
The dense complement of the whole interference, written out in
``conftest.dense_receivers``, is the oracle for both.

With rates, a row whose smallest singular value of B^H J_D, over the
largest column norm of J_D, reaches twice RANK_TOL keeps rank d_k without
the verdict's SVD; from QR_STREAMS streams on, 1 / ||R^-1||_F, a lower
bound on that singular value, stands for it. The pass that takes that SVD
on every row is the oracle for both.
"""

import dataclasses
import json

import numpy as np
import pytest

import ia_lab.receiver
import ia_lab.schemes
from ia_lab import (SchemeConfig, check_alignment,
                    demonstrate_diagonal_infeasibility, snr_sweep, zf_rates)
from ia_lab.cli import main
from ia_lab.evaluation import TRIAL_ERRORS, _trial_seed
from ia_lab.linalg import _rank, equilibrate_columns
from ia_lab.receiver import _pass, zf_ok

from conftest import dense_rates, dense_receivers, load

LARGE_DEFAULT = SchemeConfig("siso-general", K=4, n=2)
LARGE_UNIT = SchemeConfig("siso-general", K=4, n=2, a_min=1.0, a_max=1.0)


def old_rule(scheme, ext):
    """Per receiver, whether the joint-rank rule passes it: desired rank d_k
    and joint rank = interference rank + d_k, each part a column view of
    one equilibration of the receiver's products."""
    out = []
    for k in range(scheme.K):
        order = [k] + [j for j in range(scheme.K) if j != k]
        E = equilibrate_columns(np.hstack([ext.apply(k, j, scheme.precoders[j])
                                           for j in order]))
        dk = scheme.stream_counts[k]
        desired, interference, joint = (_rank(np.linalg.svd(part, compute_uv=False))
                                        for part in (E[:, :dk], E[:, dk:], E))
        out.append(desired == dk and joint == interference + dk)
    return out


# configuration, seeds, and the trials whose verdict flips from fail to pass
COMPARISON = {
    "siso-k3 n=1": (SchemeConfig("siso-k3", n=1), range(40), []),
    "siso-k3 n=3": (SchemeConfig("siso-k3", n=3), range(40), []),
    "siso-k3 n=5": (SchemeConfig("siso-k3", n=5), range(40), []),
    "siso-k3 n=8": (SchemeConfig("siso-k3", n=8), range(40), [3, 17, 22, 23, 37]),
    "siso-general K=3 n=2": (SchemeConfig("siso-general", K=3, n=2), range(40), []),
    "siso-general K=4 n=1": (SchemeConfig("siso-general", K=4, n=1), range(40), []),
    "siso-general K=4 n=2 default": (LARGE_DEFAULT, range(8), [0, 1, 2]),
    "siso-general K=4 n=2 unit": (LARGE_UNIT, range(8), []),
}


@pytest.mark.parametrize("label", list(COMPARISON))
def test_no_receiver_that_passes_the_joint_rank_rule_fails(label):
    config, seeds, flips = COMPARISON[label]
    flipped = []
    for seed in seeds:
        try:
            scheme, ext = config.build(seed)
        except TRIAL_ERRORS:
            continue
        report = check_alignment(scheme, ext)
        old = old_rule(scheme, ext)
        new = [rx.ok for rx in report.receivers]
        assert all(n for o, n in zip(old, new) if o), seed
        relations = all(r.ok for r in report.relations)
        if report.passed != (all(old) and relations):
            flipped.append(seed)
    assert flipped == flips


def test_large_pool_trials_that_flip_pass_and_the_rest_still_fail():
    # one trial per root, as the large benchmark workload sweeps them
    ok = {root: snr_sweep(LARGE_DEFAULT, [160.0, 200.0], 1, root).records[0].status == "ok"
          for root in range(1000, 1006)}
    assert ok == {1000: True, 1001: True, 1002: True, 1003: True, 1004: False, 1005: False}
    # root 1004's build fails; root 1005's receiver 1 fails either way
    scheme, ext = LARGE_DEFAULT.build(_trial_seed(1005, 0))
    assert old_rule(scheme, ext)[0] is False
    assert not check_alignment(scheme, ext).receivers[0].ok


def test_siso_k3_n8_seeds_that_flip_now_pass():
    config = SchemeConfig("siso-k3", n=8)
    for seed in COMPARISON["siso-k3 n=8"][2]:
        scheme, ext = config.build(seed)
        assert not all(old_rule(scheme, ext))
        assert check_alignment(scheme, ext).passed
        [rates] = zf_rates(scheme, ext, [1e16])
        assert rates is not None and np.all(np.isfinite(rates))


def test_verify_exits_zero_on_a_flipped_large_seed(capsys):
    code = main(["verify", "--scheme", "siso-general", "--k", "4", "--n", "2",
                 "--seed", str(_trial_seed(1000, 0))])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["passed"] is True


def test_a_desired_signal_inside_the_interference_counts_nothing():
    # the diagonal probe piles desired signal and interference onto shared
    # lines: its projection is about 1e-16, far below RANK_TOL times 1
    for M in (2, 4):
        rx = demonstrate_diagonal_infeasibility(M, seed=3).receivers[0]
        assert rx.joint_rank == rx.interference_rank == M // 2 and not rx.ok


# configuration, seeds, and the bound on |log2 g - log2 g_dense| of the gains
# the rates are held to
ORACLE = {
    "siso-k3 n=1": (SchemeConfig("siso-k3", n=1), range(8), 1e-10),
    "siso-k3 n=2": (SchemeConfig("siso-k3", n=2), range(8), 1e-10),
    "siso-k3 n=3": (SchemeConfig("siso-k3", n=3), range(8), 1e-10),
    "siso-k3 n=8": (SchemeConfig("siso-k3", n=8), range(24), 1e-7),
    "siso-general K=3 n=1": (SchemeConfig("siso-general", K=3, n=1), range(8), 1e-10),
    "siso-general K=4 n=1": (SchemeConfig("siso-general", K=4, n=1), range(8), 1e-10),
    "mimo M=2": (SchemeConfig("mimo", M=2), range(8), 1e-10),
    "mimo M=3": (SchemeConfig("mimo", M=3), range(8), 1e-10),
    "designed K=3": (SchemeConfig("designed", K=3), range(1), 1e-10),
    # the two L=275 golden seeds of test_shared_pass.py
    "siso-general K=4 n=2 unit": (LARGE_UNIT, [0], 1e-7),
    "siso-general K=4 n=2 default": (LARGE_DEFAULT, [_trial_seed(1002, 0)], 1e-7),
}


def dense_ranks(scheme, ext):
    """Per receiver, the dense oracle's (interference rank, joint rank)."""
    return [(rank, joint) for rank, joint, _ in dense_receivers(scheme, ext)]


# 160 and 200 dB: L=275's receiver 1 takes its rates from R's inverse
ORACLE_RHOS = [1e16, 1e20]


@pytest.mark.parametrize("label", list(ORACLE))
def test_structured_complements_agree_with_the_dense_pass(label):
    config, seeds, bound = ORACLE[label]
    for seed in seeds:
        scheme, ext = config.build(seed)
        report = check_alignment(scheme, ext)
        _, _, passed, rates = _pass(scheme[None], ext, ORACLE_RHOS)
        dense = dense_receivers(scheme, ext)
        dense_ok = [zf_ok(dk, rank, joint)
                    for dk, (rank, joint, _) in zip(scheme.stream_counts, dense)]
        assert [rx.ok for rx in report.receivers] == dense_ok
        assert report.passed == passed[0] == (all(dense_ok)
                                              and all(r.ok for r in report.relations))
        if passed[0]:
            # where the relations hold, the image's rank is the interference's
            assert [(rx.interference_rank, rx.joint_rank)
                    for rx in report.receivers] == [(rank, joint) for rank, joint, _ in dense]
            # log2(1 + p g) moves by at most as much as log2 g does, so a
            # bound on the gains' log2 puts d_k times it on a user's L rate
            limit = bound * np.array(scheme.stream_counts) / ext.F
            assert np.all(np.abs(rates[0] - dense_rates(scheme, ext, ORACLE_RHOS)) <= limit)


def test_a_short_rank_image_gives_the_dense_complement():
    # transmitter 1 sends its second power column twice, second and last:
    # its rank is short, and its complement has more columns than its
    # precoder's rows leave. The relations, whose maps read its first
    # columns, still hold, and receivers 2 and 3 see the interference the
    # dense oracle sees, while receiver 1 loses a stream
    scheme, ext = SchemeConfig("siso-k3", n=2).build(4)
    v = scheme.precoders[0]
    scheme = dataclasses.replace(scheme, precoders=(np.hstack([v, v[:, 1:2]]),)
                                 + scheme.precoders[1:])
    report = check_alignment(scheme, ext)
    assert [(rx.interference_rank, rx.joint_rank)
            for rx in report.receivers] == dense_ranks(scheme, ext)
    assert [rx.ok for rx in report.receivers] == [False, True, True]
    assert all(r.ok for r in report.relations)
    assert [rx.interference_rank for rx in report.receivers][1:] == [3, 3]


def test_new_precoders_of_transmitter_1_give_their_own_verdict():
    # transmitter 1's first column replaced, after the build, by one whose
    # image at receiver 2 is receiver 2's first desired column: receiver 2
    # loses a stream. The build's decomposition of the old precoders, which
    # would pass it, does not come along
    built, ext = SchemeConfig("siso-k3", n=2).build(4)
    v1, v2 = built.precoders[:2]
    column = np.linalg.solve(ext.matrix(1, 0), ext.apply(1, 1, v2[:, :1]))
    scheme = dataclasses.replace(built, precoders=(np.hstack([column, v1[:, 1:]]),)
                                 + built.precoders[1:])
    assert 0 in built.complements and not scheme.complements
    assert check_alignment(built, ext).receivers[1].ok
    assert not check_alignment(scheme, ext).receivers[1].ok
    assert zf_rates(scheme, ext, [1.0]) == [None]
    stale = dataclasses.replace(scheme)
    stale.complements.update(built.complements)
    assert check_alignment(stale, ext).receivers[1].ok


# the siso configurations of scripts/output_digest.py, in its order; their
# builds keep transmitter 1's complement. siso-general K=4 n=1 leaves its
# default law unnamed
DIGEST_SISO = [*(f"siso-k3 n={n}" for n in (1, 2, 3, 4, 5, 7, 8)),
               "siso-general K=4 n=1", "siso-general K=4 n=1 unit",
               "siso-general K=4 n=2 default", "siso-general K=4 n=2 unit"]


@pytest.mark.parametrize("index", range(len(DIGEST_SISO)), ids=DIGEST_SISO)
def test_the_kept_decomposition_is_only_a_cache(monkeypatch, index):
    # a scheme made by dataclasses.replace keeps no complement: receivers
    # 2..K decompose transmitter 1's image among their own products, and
    # give the built scheme's reports, and its rates to 1e-10 relative
    digest = load(monkeypatch, "output_digest")
    siso = [c for c in digest.CONFIGS if c.family.startswith("siso")]
    assert len(siso) == len(DIGEST_SISO)
    config = siso[index]
    family, *fields = DIGEST_SISO[index].split()
    assert family == config.family and f"n={config.n}" in fields
    assert ("unit" in fields) == (config.a_min == config.a_max == 1.0)
    rhos = digest.RHOS
    for seed in digest.build_seeds(config):
        try:
            scheme, ext = config.build(seed)
        except TRIAL_ERRORS:
            continue
        hand = dataclasses.replace(scheme)
        assert tuple(scheme.complements) == (0,) and hand.complements == {}
        # == and repr leave the complements out
        assert hand == scheme and repr(hand) == repr(scheme)
        assert check_alignment(hand, ext).to_dict() == check_alignment(scheme, ext).to_dict()
        [rates], [expected] = zf_rates(hand, ext, rhos), zf_rates(scheme, ext, rhos)
        assert (rates is None) == (expected is None)
        if rates is not None:
            assert np.all(np.abs(rates - expected) <= 1e-10 * np.abs(expected)), seed
        assert hand.complements == {}


def test_a_shared_precoder_is_decomposed_once_however_its_receivers_are_batched(
        monkeypatch):
    # one receiver per batch: receivers 2..4 carry transmitter 1's image in
    # three batches, all from the complement the build kept, so the pass
    # decomposes only receiver 1's image. A scheme made by
    # dataclasses.replace keeps none: each of its receivers decomposes its
    # image, and the pass keeps nothing in it
    [stack] = SchemeConfig("siso-general", K=4, n=1).build_trials(range(4))
    scheme, ext = stack.trial
    assert len(ext.coeffs) == 4
    rhos = [1.0, 1e8]
    expected = zf_rates(scheme, ext, rhos)
    bare = dataclasses.replace(scheme)
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def call(first, *args):
            # the columns decomposed, or the reflectors applied (V first)
            calls.append((name, (first[0] if name == "apply_householder" else first).shape))
            return original(first, *args)
        return call

    for module, name in ((ia_lab.schemes, "householder"), (ia_lab.schemes, "apply_householder"),
                         (ia_lab.receiver, "householder"), (ia_lab.receiver, "_decomposed")):
        monkeypatch.setattr(module, name, counting(module, name))
    monkeypatch.setattr(ia_lab.receiver, "STACK_BYTES", 1)
    rates = zf_rates(scheme, ext, rhos)
    assert calls == [("_decomposed", (4, 33, 1))]
    assert all(np.array_equal(a, b) for a, b in zip(rates, expected, strict=True))
    calls.clear()
    rates = zf_rates(bare, ext, rhos)
    assert calls == [("_decomposed", (4, 33, 1))] + [("_decomposed", (4, 33, 32))] * 3
    assert bare.complements == {}
    for got, want in zip(rates, expected, strict=True):
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


# configuration and seeds whose pass with rates is compared with the pass
# that takes the verdict's SVD on every row: every family's small seeds,
# the siso-k3 trials whose receiver checks fail near the tolerance, and the
# two L=275 golden seeds of test_shared_pass.py
CERTIFIED = {
    **{f"siso-k3 n={n}": (SchemeConfig("siso-k3", n=n), range(8)) for n in (1, 2, 3)},
    **{f"siso-general K={K} n=1": (SchemeConfig("siso-general", K=K, n=1), range(8))
       for K in (3, 4)},
    **{f"mimo M={M}": (SchemeConfig("mimo", M=M), range(8)) for M in (2, 3, 4, 5)},
    **{f"designed K={K}": (SchemeConfig("designed", K=K), range(1)) for K in (3, 5)},
    "siso-k3 n=7": (SchemeConfig("siso-k3", n=7), [15]),
    "siso-k3 n=8": (SchemeConfig("siso-k3", n=8), [1, 11]),
    "siso-general K=4 n=2 unit": (LARGE_UNIT, [0]),
    "siso-general K=4 n=2 default": (LARGE_DEFAULT, [_trial_seed(1002, 0)]),
}


def spied_certificates(monkeypatch):
    """Record, per row the pass with rates asks about, (the certificate's
    bound over max nu, whether it was certified): s_min(B^H J_D), or
    1 / ||R^-1||_F from QR_STREAMS streams on; nan where the basis is too
    narrow or R was not inverted."""
    seen = []
    certified, factored = ia_lab.receiver._certified, ia_lab.receiver._Factored.__init__

    def spy(s, norms):
        # norms: each row's column norms of J_D
        out = certified(s, norms)
        nu = np.max(norms, axis=-1)
        ratio = s[:, -1] / nu if s.shape[-1] == norms.shape[-1] else np.full(len(s), np.nan)
        seen.extend(zip(ratio.tolist(), out.tolist()))
        return out

    def factored_spy(self, channels, norms):
        factored(self, channels, norms)
        ratio = 1.0 / np.sqrt(self.x2) / np.max(norms, axis=-1)
        seen.extend(zip(np.where(self.slot >= 0, ratio, np.nan).tolist(),
                        self.certified.tolist()))

    monkeypatch.setattr(ia_lab.receiver, "_certified", spy)
    monkeypatch.setattr(ia_lab.receiver._Factored, "__init__", factored_spy)
    return seen


def always_verdict(monkeypatch):
    """The pass with rates with every row taking the verdict's SVD."""
    factored = ia_lab.receiver._Factored.__init__

    def uncertified(self, channels, norms):
        factored(self, channels, norms)
        self.certified[:] = self.short[:] = False

    monkeypatch.setattr(ia_lab.receiver, "_certified",
                        lambda s, norms: np.zeros(len(s), dtype=bool))
    monkeypatch.setattr(ia_lab.receiver._Factored, "__init__", uncertified)


@pytest.mark.parametrize("label", list(CERTIFIED))
def test_certified_passes_keep_the_verdicts_of_the_verdict_svd(monkeypatch, label):
    config, seeds = CERTIFIED[label]
    stacks = [stack.trial for stack in config.build_trials(seeds)
              if len(stack.trial[0].precoders[0])]
    seen = spied_certificates(monkeypatch)
    shortcut = [_pass(scheme, ext, ORACLE_RHOS) for scheme, ext in stacks]
    monkeypatch.undo()
    always_verdict(monkeypatch)
    for (scheme, ext), (ranks, residuals, passed, rates) in zip(stacks, shortcut):
        oracle_ranks, oracle_residuals, oracle_passed, oracle_rates = _pass(scheme, ext,
                                                                            ORACLE_RHOS)
        assert np.array_equal(ranks, oracle_ranks)
        assert np.array_equal(residuals, oracle_residuals, equal_nan=True)
        assert passed.tolist() == oracle_passed.tolist()
        assert rates[passed].tobytes() == oracle_rates[passed].tobytes()
        for t, ok in enumerate(passed.tolist()):
            assert ok == check_alignment(scheme[t], ext[t]).passed
    # a certified row clears twice the tolerance, and where a trial passes,
    # some row is certified
    assert all(ratio >= 2 * 1e-8 for ratio, ok in seen if ok)
    assert any(ok for _, ok in seen) or not any(p.any() for _, _, p, _ in shortcut)


def test_a_row_inside_the_band_takes_the_verdict_svd(monkeypatch):
    # mimo M=2 seed 0 with receiver 1's desired image turned to 1.5e-8 of
    # its interference's complement: its projection keeps rank 1 at
    # RANK_TOL, but its gains fall short of twice the tolerance, so the
    # verdict's SVD decides it
    scheme, ext = SchemeConfig("mimo", M=2).build(0)
    a = ext.apply(0, 1, scheme.precoders[1])[:, 0]
    a = a / np.linalg.norm(a)
    b = np.array([-a[1].conj(), a[0].conj()])
    v1 = np.linalg.solve(ext.matrix(0, 0), (a + 1.5e-8 * b)[:, None])
    scheme = dataclasses.replace(scheme, precoders=(v1,) + scheme.precoders[1:])
    seen = spied_certificates(monkeypatch)
    ranks, _, _, _ = _pass(scheme[None], ext, [1.0])
    # the three receivers go in one batch, receiver 1's row first
    assert len(seen) == 3
    ratio, ok = seen[0]
    assert 1e-8 <= ratio < 2e-8 and not ok
    monkeypatch.undo()
    always_verdict(monkeypatch)
    oracle, _, _, _ = _pass(scheme[None], ext, [1.0])
    assert np.array_equal(ranks, oracle)
    assert zf_ok(1, *ranks[1:, 0, 0])
