"""A stack's verdicts are arrays: the receiver pass's ranks and residuals
decide both ``zf_rates``'s mask and ``check_alignment``'s report, and a
build checks the full column rank of same-shape transmitters together."""

import numpy as np
import pytest

import ia_lab.schemes
from ia_lab import SchemeConfig, check_alignment, zf_rates
from ia_lab.channels import ChannelSet
from ia_lab.errors import DegeneracyError
from ia_lab.evaluation import TRIAL_ERRORS, _trial_seed
from ia_lab.schemes import TrialStack, full_rank_schemes

from conftest import corrupt, stacked

SMALL = {
    "siso-k3 n=1": SchemeConfig("siso-k3", n=1),
    "siso-k3 n=2": SchemeConfig("siso-k3", n=2),
    "siso-general K=3 n=1": SchemeConfig("siso-general", K=3, n=1),
    "siso-general K=4 n=1": SchemeConfig("siso-general", K=4, n=1),
    "mimo M=2": SchemeConfig("mimo", M=2),
    "mimo M=3": SchemeConfig("mimo", M=3),
    "mimo M=4": SchemeConfig("mimo", M=4),
    "designed K=3": SchemeConfig("designed", K=3),
    "designed K=5": SchemeConfig("designed", K=5),
}
# the two L=275 trials of the large golden reports, both passing: the unit
# law's seed 0 and the default law's trial of sweep root 1002
LARGE = [(SchemeConfig("siso-general", K=4, n=2, a_min=1.0, a_max=1.0), 0),
         (SchemeConfig("siso-general", K=4, n=2), _trial_seed(1002, 0))]


def assert_rates_none_where_reports_fail(trials):
    rates = zf_rates(*stacked(trials), [1e4, 1e8])
    verdicts = [check_alignment(scheme, ext).passed for scheme, ext in trials]
    assert [r is not None for r in rates] == verdicts
    return verdicts


@pytest.mark.parametrize("label", list(SMALL))
def test_rates_are_none_exactly_where_the_report_fails(label):
    trials = []
    for seed in range(6):
        try:
            scheme, ext = SMALL[label].build(seed)
        except TRIAL_ERRORS:
            continue
        trials += [(scheme, ext), (corrupt(scheme, seed), ext)]
    verdicts = assert_rates_none_where_reports_fail(trials)
    assert verdicts[::2] == [True] * (len(trials) // 2)
    assert not any(verdicts[1::2])


def test_large_rates_are_none_exactly_where_the_report_fails():
    trials = [config.build(seed) for config, seed in LARGE]
    # and the default-law trial with transmitter 2's precoder broken
    (scheme, ext), seed = trials[1], LARGE[1][1]
    verdicts = assert_rates_none_where_reports_fail(trials + [(corrupt(scheme, seed), ext)])
    assert verdicts == [True, True, False]


@pytest.mark.parametrize("config, calls", [
    (SchemeConfig("mimo", M=2), 1),
    (SchemeConfig("mimo", M=3), 1),
    # transmitter 1 of an even M >= 4 is column-major: it sums its column
    # norms in another order than the other two, so it goes alone
    (SchemeConfig("mimo", M=4), 2),
    (SchemeConfig("siso-k3", n=2), 2),
    (SchemeConfig("siso-general", K=4, n=1), 2),
])
def test_a_stacked_build_checks_full_rank_once_per_precoder_shape(monkeypatch, config, calls):
    counted = []
    check = ia_lab.schemes.has_full_column_rank

    def counting(matrix):
        counted.append(matrix.shape)
        return check(matrix)

    monkeypatch.setattr(ia_lab.schemes, "has_full_column_rank", counting)
    [stack] = config.build_trials(range(5))
    assert len(counted) == calls
    assert sum(shape[0] for shape in counted) == 5 * config.K


def test_each_trial_names_its_first_rank_deficient_transmitter():
    rng = np.random.default_rng(3)
    precoders = [rng.normal(size=(4, 6, 2)) + 0j for _ in range(3)]
    precoders[1][1, :, 1] = 0.0  # trial 1: transmitter 2
    precoders[0][2, :, 1] = precoders[0][2, :, 0]  # trial 2: transmitters 1 and 3
    precoders[2][2, :, 1] = 0.0
    precoders[2][3, :, 0] = 0.0  # trial 3: transmitter 3
    stack = TrialStack(4)
    ext = ChannelSet(K=3, M=6, F=1, a_min=1.0, a_max=1.0, seed=(0, 1, 2, 3),
                     coeffs=np.zeros((4, 3, 3, 1, 6, 6), dtype=complex))
    (scheme, _), slots = stack.finish(full_rank_schemes(
        stack, DegeneracyError, tuple(precoders), family="mimo", K=3, M=6, L=1), ext)
    assert slots[0] == 0 and len(scheme.precoders[0]) == 1
    assert [str(slots[t]) for t in (1, 2, 3)] == [
        f"precoder of transmitter {i} lost full column rank" for i in (2, 1, 3)]
    assert all(v[0].tobytes() == p[0].tobytes() for v, p in zip(scheme.precoders, precoders))
