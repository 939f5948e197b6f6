"""The rank rule and the one equilibration it reads at a receiver.

``_rank`` counts each descending row of singular values from its tail; it
must give the counting rule's answer, value by value, on every row, from
the row's largest value or from a given scale. The receiver pass
equilibrates each batch's joint products once and takes the desired and
image SVDs, and the projection of the desired columns onto the image's
complement, on column views of them; since each column is scaled alone,
that must give the ranks and reports of equilibrating each part on its
own, and the same singular values bit for bit wherever a part has two or
more columns (numpy may sum a one-column part's norm pairwise, which
cannot change a one-column rank). Where the relations hold, the ranks are
also those of the dense oracle, the complement of the whole interference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ia_lab import SchemeConfig, check_alignment
from ia_lab.evaluation import _trial_seed
from ia_lab.families import get_family
from ia_lab.linalg import (RANK_TOL, _rank, complement_and_rank, equilibrate_columns,
                           numerical_rank)
from ia_lab.receiver import ReceiverCheck, _pass

from conftest import corrupt, dense_receivers, pass_checks, without_desired


def counted(row, scale=None):
    """The counting rule: every value of the row >= RANK_TOL times its
    first, or times ``scale`` when given."""
    cut = RANK_TOL * (row[0] if scale is None else scale) if row else 0.0
    return sum(x >= cut for x in row) if row and row[0] > 0.0 else 0


@st.composite
def descending_stacks(draw):
    """(T, n) stacks of descending nonnegative rows, with zeros, all-zero
    rows and values exactly at RANK_TOL times the row's first."""
    T, n = draw(st.integers(0, 5)), draw(st.integers(0, 8))
    rows = []
    for _ in range(T):
        lead = draw(st.sampled_from([0.0, 1.0, 3.0, 5e-324, 1e300])
                    | st.floats(0.0, 1e10, allow_subnormal=True))
        rest = draw(st.lists(st.sampled_from([0.0, RANK_TOL * lead, lead])
                             | st.floats(0.0, 1.0).map(lambda f: f * lead),
                             min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
        rows.append(sorted([lead] + rest, reverse=True)[:n])
    return np.array(rows, dtype=float).reshape(T, n)


@settings(max_examples=300, deadline=None)
@given(descending_stacks(), st.sampled_from([None, 1.0, 0.5, 3.0, 1e300]))
def test_tail_count_is_the_counting_rule(s, scale):
    expected = [counted(row, scale) for row in s.tolist()]
    ranks = _rank(s, scale)
    assert ranks.dtype == int and ranks.shape == (len(s),)
    assert ranks.tolist() == expected
    for row, count in zip(s, expected):
        alone = _rank(row, scale)
        assert type(alone) is int and alone == count


def test_tail_count_on_edge_rows():
    assert _rank(np.empty((3, 0))).tolist() == [0, 0, 0]
    assert _rank(np.empty((0, 4))).tolist() == []
    assert _rank(np.empty(0)) == 0
    assert _rank(np.zeros(4)) == 0
    # a value exactly at the cut counts, the one just below does not
    cut = RANK_TOL * 3.0
    row = np.array([3.0, 1.0, cut, np.nextafter(cut, 0.0), 0.0])
    assert _rank(row) == 3
    assert _rank(row[None]).tolist() == [3]
    # from a scale of 1, as a projection of unit-norm columns counts: a
    # value at 1e-16 (a desired signal inside the interference) counts nothing
    assert _rank(np.array([0.5, RANK_TOL, np.nextafter(RANK_TOL, 0.0)]), scale=1.0) == 2
    assert _rank(np.array([1e-16, 1e-17]), scale=1.0) == 0
    assert _rank(np.array([1e-16, 1e-17])) == 2


CONFIGS = {
    "siso-k3 n=1": (SchemeConfig("siso-k3", n=1), range(4)),
    "siso-k3 n=3": (SchemeConfig("siso-k3", n=3), range(4)),
    "siso-k3 n=7": (SchemeConfig("siso-k3", n=7), range(4)),
    "siso-general K=3 n=2": (SchemeConfig("siso-general", K=3, n=2), range(4)),
    "siso-general K=4 n=1": (SchemeConfig("siso-general", K=4, n=1), range(4)),
    "mimo M=2": (SchemeConfig("mimo", M=2), range(4)),
    "mimo M=3": (SchemeConfig("mimo", M=3), range(4)),
    # from M=8 on transmitter 1's precoder is column-major
    "mimo M=8": (SchemeConfig("mimo", M=8), range(4)),
    "mimo M=9": (SchemeConfig("mimo", M=9), range(4)),
    "mimo M=16": (SchemeConfig("mimo", M=16), range(2)),
    "designed K=3": (SchemeConfig("designed", K=3), range(1)),
    "designed K=10": (SchemeConfig("designed", K=10), range(1)),
    # the two L=275 golden seeds of test_shared_pass.py
    "siso-general K=4 n=2 unit": (
        SchemeConfig("siso-general", K=4, n=2, a_min=1.0, a_max=1.0), [0]),
    "siso-general K=4 n=2 default": (
        SchemeConfig("siso-general", K=4, n=2), [_trial_seed(1002, 0)]),
}
# trials built and then broken on purpose, so that a relation at receiver 1
# fails
CONFIGS.update({f"{label} broken": CONFIGS[label]
                for label in ("siso-k3 n=3", "mimo M=3", "siso-general K=4 n=2 default")})


def image_of(scheme, k):
    """The transmitter whose image spans receiver k's interference."""
    return get_family(scheme.family).interference_image(scheme.K)[k]


def joint_products(scheme, ext, k, unit_desired):
    """Receiver k's products as the pass lays them out, a stack of one: its
    own streams first (through unit-norm columns when ``unit_desired``),
    then its image's, then the others' in transmitter order."""
    j = image_of(scheme, k)
    order = [k, j] + [i for i in range(scheme.K) if i not in (k, j)]
    J = np.empty((1, ext.dim, scheme.total_streams), dtype=complex)
    at = 0
    for j in order:
        v = scheme.precoders[j]
        d = v.shape[-1]
        J[0, :, at:at + d] = ext.apply(k, j, equilibrate_columns(v) if j == k and unit_desired
                                       else v)
        at += d
    return J


def per_part_checks(scheme, ext):
    """Each receiver's check with each part equilibrated on its own: the
    desired rank, the image's rank, and that plus the rank, from a scale of
    1, of the desired part projected onto the image's complement."""
    out = []
    for k in range(scheme.K):
        J = joint_products(scheme, ext, k, False)
        dk = scheme.stream_counts[k]
        hi = dk + scheme.stream_counts[image_of(scheme, k)]
        u, rank = complement_and_rank(equilibrate_columns(J[..., dk:hi]))
        projected = u[..., rank[0]:].conj().swapaxes(-1, -2) @ equilibrate_columns(
            J[..., :dk])
        kept = _rank(np.linalg.svd(projected, compute_uv=False), scale=1.0)
        out.append(ReceiverCheck(k, dk, numerical_rank(J[..., :dk])[0], rank[0],
                                 rank[0] + kept[0], ext.dim))
    return tuple(out)


@pytest.mark.parametrize("label", list(CONFIGS))
def test_one_equilibration_equals_one_per_part(label):
    config, seeds = CONFIGS[label]
    for seed in seeds:
        scheme, ext = config.build(seed)
        broken = label.endswith(" broken")
        if broken:
            scheme = corrupt(scheme, seed)
        for unit_desired in (False, True):
            for k in range(scheme.K):
                J = joint_products(scheme, ext, k, unit_desired)
                dk = scheme.stream_counts[k]
                hi = dk + scheme.stream_counts[image_of(scheme, k)]
                E = equilibrate_columns(J[..., :hi])
                for view, part in ((E[..., :dk], J[..., :dk]), (E[..., dk:], J[..., dk:hi])):
                    s_view = np.linalg.svd(view, compute_uv=False)
                    s_part = np.linalg.svd(equilibrate_columns(part), compute_uv=False)
                    assert _rank(s_view).tolist() == _rank(s_part).tolist()
                    if part.shape[-1] > 1:
                        assert s_view.tobytes() == s_part.tobytes(), (seed, k)
                # the complement the rates project on, bit for bit where
                # the image has two or more columns
                u, rank = complement_and_rank(E[..., dk:])
                u_alone, rank_alone = complement_and_rank(equilibrate_columns(J[..., dk:hi]))
                assert rank.tolist() == rank_alone.tolist()
                if hi - dk > 1:
                    assert u.tobytes() == u_alone.tobytes()
        report = check_alignment(scheme, ext)
        assert report.receivers == per_part_checks(scheme, ext)
        assert report.passed == (not broken)
        if not broken:
            assert [(rx.interference_rank, rx.joint_rank) for rx in report.receivers] == [
                (rank, joint) for rank, joint, _ in dense_receivers(scheme, ext)]
        ranks, _, _, _ = _pass(scheme[None], ext, [1.0])
        checks = pass_checks(scheme, ext, ranks)
        assert checks == without_desired(report.receivers[:len(checks)])
