"""The complement of a shared precoder, from one Householder QR for its rank
and its basis, against the full-U SVD it replaced.

``linalg.complement_and_rank`` of the equilibrated precoder is the oracle:
the ranks must match it, the two complements must agree to within what
float64 can resolve at the precoder's condition, and the rates read from
them must agree to 1e-10 relative. A scheme made by hand keeps no
complement: its receivers decompose each image themselves, so its report
does not change, a precoder short of rank too.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import ia_lab.schemes
from ia_lab import DegeneracyError, SchemeConfig, check_alignment, zf_rates
from ia_lab.channels import ChannelSet
from ia_lab.evaluation import _trial_seed
from ia_lab.linalg import complement_and_rank, equilibrate_columns
from ia_lab.receiver import _pass
from ia_lab.schemes import TrialStack

EPS = np.finfo(float).eps
RHOS = [10.0 ** (s / 10.0) for s in (20.0, 100.0, 200.0)]

# the two L=275 seeds of test_shared_pass.py's LARGE_GOLDEN, and siso-k3
# seeds whose receiver checks sit near the tolerance
CASES = {
    "siso-general K=4 n=2 unit 0":
        (SchemeConfig("siso-general", K=4, n=2, a_min=1.0, a_max=1.0), 0),
    "siso-general K=4 n=2 default root 1002":
        (SchemeConfig("siso-general", K=4, n=2), _trial_seed(1002, 0)),
    **{f"siso-k3 n=8 seed {seed}": (SchemeConfig("siso-k3", n=8), seed)
       for seed in (1, 11, 21, 22)},
    **{f"siso-k3 n=10 seed {seed}": (SchemeConfig("siso-k3", n=10), seed) for seed in (0, 2)},
}


def largest_sine(a, b):
    """Sine of the largest principal angle between the spans of two
    orthonormal bases of one dimension."""
    return np.linalg.norm(a - b @ (b.conj().T @ a), 2)


@pytest.mark.parametrize("label", list(CASES))
def test_the_complement_agrees_with_the_full_u_svd(label):
    config, seed = CASES[label]
    scheme, ext = config.build(seed)
    stack = scheme[None]
    u = scheme.complements[0]
    e = equilibrate_columns(scheme.precoders[0])
    basis, rank = complement_and_rank(e)
    assert rank == e.shape[-1] and u.shape == basis.shape
    s = np.linalg.svd(e, compute_uv=False)
    assert largest_sine(u, basis) <= 100 * EPS / (s[-1] / s[0])

    # the pass on the oracle's complement: the same verdicts, and rates
    # within 1e-10 relative
    oracle = dataclasses.replace(stack)
    oracle.complements[0] = basis[None]
    assert (check_alignment(oracle[0], ext).to_dict()
            == check_alignment(scheme, ext).to_dict())
    [rates], [expected] = zf_rates(stack, ext[None], RHOS), zf_rates(oracle, ext[None], RHOS)
    assert (rates is None) == (expected is None)
    if rates is not None:
        assert np.all(np.abs(rates - expected) <= 1e-10 * np.abs(expected))


# transmitter 1's precoder of a siso-k3 n=2 stack of three trials with
# trial 1's third column replaced by its first; SHA-256 of each trial's
# check_alignment report as json.dumps(report.to_dict(), sort_keys=True)
# plus a newline, as recorded with the full-U SVD of every row, and again
# when subset relations came to measure each image column against the pool
# column the family maps it to: trial 1's rx2 residual, of the replaced
# column, went from 0.907 (its nearest column) to 1.307; it fails either way
HAND_MADE_REPORTS = "01c3fdb42ff3b6933dd086045cced47e5099680496c38176229002745c2b0c00"


def test_a_hand_made_stack_short_of_rank_in_one_row_keeps_its_reports():
    [built] = SchemeConfig("siso-k3", n=2).build_trials(range(3))
    scheme, ext = built.trial
    v1 = scheme.precoders[0].copy()
    v1[1, :, 2] = v1[1, :, 0]
    hand = dataclasses.replace(scheme, precoders=(v1,) + scheme.precoders[1:])
    reports = [check_alignment(hand[t], ext[t]) for t in range(3)]
    sha = hashlib.sha256()
    for report in reports:
        sha.update(json.dumps(report.to_dict(), sort_keys=True).encode() + b"\n")
    assert sha.hexdigest() == HAND_MADE_REPORTS
    assert [r.passed for r in reports] == [True, False, True]
    # the stacked pass, whose receivers decompose each image among their
    # own products, by rank, reads the same ranks and keeps nothing in hand
    ranks, _, passed, _ = _pass(hand, ext)
    assert hand.complements == {}
    assert passed.tolist() == [r.passed for r in reports]
    for t, report in enumerate(reports):
        assert ranks[:, :, t].T.tolist() == [
            [r.desired_rank, r.interference_rank, r.joint_rank] for r in report.receivers]


def test_a_trial_the_build_rejects_is_not_decomposed(monkeypatch):
    # siso-k3's transmitter 1 is shared; trial 1's precoder loses a column.
    # One QR of all three decides their ranks; only the trials that built
    # form a complement
    rng = np.random.default_rng(3)
    precoders = [rng.normal(size=(3, 5, d)) + 1j * rng.normal(size=(3, 5, d)) for d in (3, 2, 2)]
    precoders[0][1, :, 2] = precoders[0][1, :, 0]
    decomposed, formed = [], []
    factor, apply = ia_lab.schemes.householder, ia_lab.schemes.apply_householder

    def counting_factor(matrix):
        decomposed.append(len(matrix))
        return factor(matrix)

    def counting_apply(reflectors, x, *args):
        formed.append(len(reflectors[0]))
        return apply(reflectors, x, *args)

    monkeypatch.setattr(ia_lab.schemes, "householder", counting_factor)
    monkeypatch.setattr(ia_lab.schemes, "apply_householder", counting_apply)
    ext = ChannelSet(K=3, M=1, F=5, a_min=1.0, a_max=1.0, seed=(0, 1, 2),
                     coeffs=np.ones((3, 3, 3, 5, 1, 1), dtype=complex))
    (kept, _), slots = TrialStack(ext).finish(DegeneracyError, tuple(precoders),
                                              family="siso-k3", K=3, M=1, L=5, n=2)
    assert decomposed == [3] and formed == [2]
    assert slots[0] == 0 and slots[2] == 1
    assert str(slots[1]) == "precoder of transmitter 1 lost full column rank"
    u = kept.complements[0]
    assert u.shape == (2, 5, 2)
    for row, t in enumerate((0, 2)):
        e = equilibrate_columns(precoders[0][t])
        alone = TrialStack(ext[t]).finish(DegeneracyError, tuple(v[t:t + 1] for v in precoders),
                                          family="siso-k3", K=3, M=1, L=5, n=2)
        assert u[row].tobytes() == alone.complements[0].tobytes()
        assert np.allclose(u[row].conj().T @ u[row], np.eye(2), rtol=0.0, atol=1e-14)
        assert np.allclose(u[row].conj().T @ e, 0.0, rtol=0.0, atol=1e-14)
