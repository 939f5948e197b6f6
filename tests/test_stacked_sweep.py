"""Sweeps work on their trials as stacks: one channel draw, one receiver pass
per stack, one broadcast per receiver for the grid.

Every stacked result must equal what the trial gets alone bit for bit:
its channels, its status, and its rates.
"""

import collections
import dataclasses
import hashlib
import json

import numpy as np
import pytest

import ia_lab.channels
import ia_lab.evaluation
import ia_lab.families
import ia_lab.mimo
import ia_lab.receiver
import ia_lab.schemes
import ia_lab.siso
import ia_lab.verification
from ia_lab import (ParameterError, ShapeError, SchemeConfig, extend_channel,
                    generate_channels, snr_sweep, zf_rates)
from ia_lab.evaluation import TRIAL_ERRORS, BuiltStack, _trial_seed
from ia_lab.linalg import orthonormal_complement
from ia_lab.receiver import _pass, check_alignment, zf_ok

from conftest import corrupt, pass_checks, replaced, stacked, steer

CONFIGS = {
    "siso-k3 n=1": SchemeConfig("siso-k3", n=1),
    "siso-k3 n=2": SchemeConfig("siso-k3", n=2),
    "siso-general K=4 n=1": SchemeConfig("siso-general", K=4, n=1),
    "mimo M=2": SchemeConfig("mimo", M=2),
    "mimo M=3": SchemeConfig("mimo", M=3),
    "mimo M=4": SchemeConfig("mimo", M=4),
    "designed K=3": SchemeConfig("designed", K=3),
    "designed K=5": SchemeConfig("designed", K=5),
}
GRID = (0.0, 40.0, 80.0, 120.0, 160.0)
RHOS = [10.0 ** (s / 10.0) for s in GRID]


def alone(config, seed):
    """(status, rates) of one trial built and evaluated on its own."""
    try:
        scheme, ext = config.build(seed)
    except TRIAL_ERRORS:
        return "failed", None
    [rates] = zf_rates(scheme, ext, RHOS)
    if rates is None:
        return "failed", None
    return "ok", [tuple(row) for row in rates.tolist()]


def by_trial(table):
    out = {}
    for rec in table.records:
        status, rows = out.setdefault(rec.seed, (rec.status, []))
        assert rec.status == status  # a trial fails or passes as a whole
        rows.append(rec.rates)
    return {seed: (status, None if status == "failed" else rows)
            for seed, (status, rows) in out.items()}


def assert_sweep_equals_trials_alone(config, trials, seed):
    table = snr_sweep(config, GRID, trials, seed)
    seeds = [_trial_seed(seed, t) for t in range(trials)]
    assert [r.seed for r in table.records] == [s for s in seeds for _ in GRID]
    assert by_trial(table) == {s: alone(config, s) for s in seeds}


@pytest.mark.parametrize("trials", [1, 2, 5])
@pytest.mark.parametrize("label", list(CONFIGS))
def test_stacked_sweep_equals_each_trial_alone(label, trials):
    assert_sweep_equals_trials_alone(CONFIGS[label], trials, seed=trials)


def written_out_grid_rates(scheme, ext, rhos):
    """Zero-forcing rates of one trial, computed receiver by receiver with
    2-D arrays only: the unit-norm precoder, the complement of the image
    that spans the interference, and the gains of the projected effective
    channel."""
    K, L = scheme.K, ext.F
    image = ia_lab.families.get_family(scheme.family).interference_image(K)
    out = np.empty((len(rhos), K))
    for k in range(K):
        basis = orthonormal_complement(ext.apply(k, image[k], scheme.precoders[image[k]]))
        v = scheme.precoders[k]
        effective = basis.conj().T @ ext.apply(k, k, v / np.linalg.norm(v, axis=0))
        gains = np.linalg.svd(effective, compute_uv=False) ** 2
        p = (np.asarray(rhos) / K) * L / gains.size
        out[:, k] = np.sum(np.log2(1.0 + p[:, None] * gains), axis=1) / L
    return out


@pytest.mark.parametrize("M", [3, 8, 10])
def test_stacked_rates_equal_the_written_out_computation(M):
    # from M=8 on, transmitter 1's precoder is Fortran-ordered and long
    # enough that numpy sums its column norms in another order than for a
    # C-ordered copy; the stack must normalize each precoder as it is
    config = SchemeConfig("mimo", M=M)
    table = snr_sweep(config, GRID, 4, seed=M)
    rows = by_trial(table)
    for seed, (status, rates) in rows.items():
        assert status == "ok"
        scheme, ext = config.build(seed)
        expected = written_out_grid_rates(scheme, ext, RHOS)
        assert rates == [tuple(r) for r in expected.tolist()]


def builds(config, seeds):
    """The builds of ``seeds``, in order, from the stacks of build_trials."""
    return [built for stack in config.build_trials(seeds) for _, built in stack]


def test_sweep_across_stack_boundaries_equals_each_trial_alone(monkeypatch):
    config = CONFIGS["siso-k3 n=1"]
    # room for two trials per stack: five trials take three stacks
    budget = 2 * ia_lab.evaluation._trial_bytes(config)
    monkeypatch.setattr(ia_lab.evaluation, "STACK_BYTES", budget)
    sizes, built = [], []
    original = ia_lab.evaluation.zf_rates
    family = ia_lab.families.FAMILIES[config.family]

    def recording(scheme, ext, rhos):
        sizes.append(len(scheme.precoders[0]))
        return original(scheme, ext, rhos)

    def recording_build(config, channels):
        built.append(len(channels.seed))
        return family.build(config, channels)

    monkeypatch.setattr(ia_lab.evaluation, "zf_rates", recording)
    monkeypatch.setitem(ia_lab.families.FAMILIES, config.family,
                        dataclasses.replace(family, build=recording_build))
    assert_sweep_equals_trials_alone(config, 5, seed=11)
    assert sizes == [2, 2, 1]
    # the sweep's three stacks, then the five trials alone: one build call
    # per stack, the stack cut before the build
    assert built == [2, 2, 1] + [1] * 5


def test_a_trial_larger_than_the_budget_goes_alone(monkeypatch):
    monkeypatch.setattr(ia_lab.evaluation, "STACK_BYTES", 1)
    stacks = SchemeConfig("mimo", M=2).build_trials(range(3))
    assert [[seed for seed, _ in stack] for stack in stacks] == [[0], [1], [2]]


def test_the_large_case_is_cut_to_one_trial_per_stack():
    # an L=275 trial alone exceeds the budget, so it is built alone
    config = SchemeConfig("siso-general", K=4, n=2)
    assert ia_lab.evaluation._trial_bytes(config) > ia_lab.evaluation.STACK_BYTES


@dataclasses.dataclass(frozen=True)
class OneCorrupted:
    """A configuration whose build of one given trial seed is corrupted."""

    config: SchemeConfig
    bad_seed: int

    @property
    def K(self):
        return self.config.K

    def build_trials(self, seeds):
        # each stack's trials taken apart and stacked again
        for stack in self.config.build_trials(seeds):
            trials = [(corrupt(built[0], seed), built[1]) if seed == self.bad_seed
                      else built for seed, built in stack
                      if not isinstance(built, Exception)]
            yield BuiltStack(stack.seeds, stack.slots, stacked(trials))


@pytest.mark.parametrize("label", ["siso-k3 n=2", "mimo M=3", "siso-general K=4 n=1"])
def test_corrupted_trial_fails_alone_in_a_mixed_stack(label):
    config = CONFIGS[label]
    clean = snr_sweep(config, GRID, 5, 3)
    bad_seed = _trial_seed(3, 2)
    mixed = snr_sweep(OneCorrupted(config, bad_seed), GRID, 5, 3)
    assert len(mixed.records) == len(clean.records)
    for got, want in zip(mixed.records, clean.records):
        if got.seed == bad_seed:
            assert (got.status, got.rates) == ("failed", None)
        else:
            assert got == want


def one_stack(config, seeds):
    """The stacked (scheme, ext) of one build stack of ``seeds``; a family
    that draws no channels builds one trial, a stack of one."""
    [stack] = config.build_trials(seeds)
    return stack.trial


@pytest.mark.parametrize("label", list(CONFIGS))
def test_a_relation_pass_forms_each_link_product_once(monkeypatch, label):
    scheme, ext = one_stack(CONFIGS[label], range(3))
    formed = collections.Counter()
    apply = ia_lab.channels.ChannelSet.apply

    def counting(ext, k, j, v):
        formed[k, j] += 1
        return apply(ext, k, j, v)

    monkeypatch.setattr(ia_lab.channels.ChannelSet, "apply", counting)
    # once per stack, for the checks and relations of check_alignment and for
    # a whole zf_rates call: the relations and the rates read the products
    # of the receiver pass
    once = {(k, j): 1 for k in range(scheme.K) for j in range(scheme.K)}
    _pass(scheme, ext)
    assert formed == once
    formed.clear()
    assert all(rates is not None for rates in zf_rates(scheme, ext, RHOS))
    assert formed == once


def test_families_of_one_shape_take_their_own_relations(monkeypatch):
    # siso-k3 n=1 and siso-general K=3 n=1 build trials of one shape
    k3 = one_stack(CONFIGS["siso-k3 n=1"], [4, 5])
    general = one_stack(SchemeConfig("siso-general", K=3, n=1), [4])
    assert k3[1].coeffs.shape[1:] == general[1].coeffs.shape[1:]
    assert k3[0].stream_counts == general[0].stream_counts
    relations = []
    get_family = ia_lab.receiver.get_family

    def recording(name):
        relations.append(name)
        return get_family(name)

    monkeypatch.setattr(ia_lab.receiver, "get_family", recording)
    for scheme, ext in (k3, general):
        assert all(rates is not None for rates in zf_rates(scheme, ext, RHOS))
    assert relations == ["siso-k3", "siso-general"]


@pytest.mark.parametrize("shape", [(3, 1, 3), (4, 1, 33), (3, 2, 1), (3, 3, 1)])
@pytest.mark.parametrize("law", [(0.5, 2.0), (1.0, 1.0)])
def test_stacked_draw_is_bit_identical_to_one_seed_at_a_time(shape, law):
    seeds = [0, 1, 2 ** 63 + 5, 2 ** 64 - 1, 12345]
    stack = generate_channels(*shape, *law, seeds)
    assert stack.stacked
    assert len(stack.seed) == len(seeds)
    for t, seed in enumerate(seeds):
        ch = stack[t]
        alone = generate_channels(*shape, *law, seed)
        assert ch == dataclasses.replace(alone, coeffs=ch.coeffs)
        assert ch.coeffs.tobytes() == alone.coeffs.tobytes()
        assert not ch.coeffs.flags.writeable


def test_build_trials_channels_match_per_seed_generation():
    seeds = [0, 2 ** 63 + 5, 2 ** 64 - 1]
    for config in (CONFIGS["siso-k3 n=2"], CONFIGS["mimo M=2"]):
        K, M, F = ia_lab.families.FAMILIES[config.family].channel_shape(config)
        for seed, (scheme, ext) in zip(seeds, builds(config, seeds)):
            ch = generate_channels(K, M, F, config.a_min, config.a_max, seed)
            assert np.array_equal(ext.coeffs, extend_channel(ch, ext.F).coeffs)
            assert np.array_equal(ext.coeffs, config.build(seed)[1].coeffs)


def test_build_trials_puts_each_build_error_in_its_slot(monkeypatch):
    from ia_lab.errors import DegeneracyError

    calls = []
    family = ia_lab.families.FAMILIES["mimo"]

    def flaky(config, channels):
        # the real build, with seed 1's trial failing
        calls.append(channels.seed)
        (scheme, ext), _ = family.build(config, channels)
        rows = [t for t, seed in enumerate(channels.seed) if seed != 1]
        slots = [DegeneracyError("synthetic") if seed == 1 else rows.index(t)
                 for t, seed in enumerate(channels.seed)]
        return (scheme[rows], ext[rows]), tuple(slots)

    monkeypatch.setitem(ia_lab.families.FAMILIES, "mimo",
                        dataclasses.replace(family, build=flaky))
    [stack] = SchemeConfig("mimo", M=2).build_trials([0, 1, 2])
    assert [seed for seed, _ in stack] == [0, 1, 2]
    built = [b for _, b in stack]
    for seed in (0, 2):
        scheme, ext = built[seed]
        assert np.array_equal(ext.coeffs, extend_channel(
            generate_channels(3, 2, 1, seed=seed), 1, mode="constant-time").coeffs)
        assert scheme.K == 3 and not scheme.stacked
    assert isinstance(built[1], DegeneracyError)
    assert calls == [(0, 1, 2)]
    with pytest.raises(DegeneracyError):
        SchemeConfig("mimo", M=2).build(1)


@pytest.mark.parametrize("label", ["siso-k3 n=1", "siso-general K=4 n=1", "mimo M=2",
                                   "mimo M=3"])
def test_a_stack_none_of_whose_trials_built_gives_no_rates(monkeypatch, label):
    # every family that draws channels; a designed build has no trial to lose
    config = CONFIGS[label]
    monkeypatch.setattr(ia_lab.schemes, "has_full_column_rank",
                        lambda matrix: np.zeros(matrix.shape[0], dtype=bool))
    [stack] = config.build_trials(range(3))
    assert all(isinstance(built, TRIAL_ERRORS) for _, built in stack)
    scheme, ext = stack.trial
    assert len(scheme.precoders[0]) == len(ext.coeffs) == 0
    assert zf_rates(scheme, ext, RHOS) == []
    table = snr_sweep(config, GRID, 3, seed=0)
    assert len(table.records) == 3 * len(GRID)
    assert all((r.status, r.rates) == ("failed", None) for r in table.records)


BUILD_CONFIGS = {**CONFIGS, "mimo M=5": SchemeConfig("mimo", M=5),
                 "mimo M=8": SchemeConfig("mimo", M=8)}


def stacked_verdicts(scheme, ext):
    """Per trial of a stacked (scheme, ext), from one receiver pass and one
    relation pass over the stack: its (desired, interference, joint) ranks
    per receiver and its relation residuals."""
    ranks, residuals, _, _ = _pass(scheme, ext)
    return [(ranks[..., t].T.tolist(), residuals[:, t].tolist())
            for t in range(len(scheme.precoders[0]))]


def report_verdicts(report):
    """The ranks and residuals of an alignment report, as stacked_verdicts
    gives them."""
    return ([[r.desired_rank, r.interference_rank, r.joint_rank] for r in report.receivers],
            [r.residual for r in report.relations])


@pytest.mark.parametrize("trials", [1, 2, 5])
@pytest.mark.parametrize("label", list(BUILD_CONFIGS))
def test_stacked_build_equals_each_build_alone(label, trials):
    config = BUILD_CONFIGS[label]
    seeds = [_trial_seed(trials, t) for t in range(trials)]
    [stack] = config.build_trials(seeds)  # one stack, built by one call
    assert [seed for seed, _ in stack] == seeds
    built = [b for _, b in stack]
    trial = stack.trial
    verdicts = [stacked_verdicts(*trial)[slot] for slot in stack.slots]
    for seed, (scheme, ext), verdict in zip(seeds, built, verdicts, strict=True):
        scheme_alone, ext_alone = config.build(seed)
        assert np.array_equal(ext.coeffs, ext_alone.coeffs)
        for v, v_alone in zip(scheme.precoders, scheme_alone.precoders, strict=True):
            assert v.tobytes() == v_alone.tobytes()
            # the memory layout too: from M=8 on it decides the order in which
            # the receiver sums a precoder's column norms
            assert v.strides == v_alone.strides
        assert dataclasses.replace(scheme, precoders=()) == dataclasses.replace(
            scheme_alone, precoders=())
        assert verdict == report_verdicts(check_alignment(scheme_alone, ext_alone))


def zero_h31(coeffs):
    coeffs[2, 0, 0] = 0.0


def zero_h31_and_h12(coeffs):
    coeffs[2, 0, 0] = coeffs[0, 1, 0] = 0.0


def zero_column_of_h32(coeffs):
    coeffs[2, 1, 0, :, 0] = 0.0


def identity_links(coeffs):
    coeffs[...] = np.eye(coeffs.shape[-1])


def zero_h12(coeffs):
    coeffs[0, 1, 0] = 0.0


def zero_slot_of_h23(coeffs):
    coeffs[1, 2, 0] = 0.0


def unit_links(coeffs):
    coeffs[...] = 1.0


# a broken channel and the failure it gives alone
BROKEN = [
    ("mimo M=2", zero_h31, "H31 is singular"),
    ("mimo M=3", zero_h31, "H31 is singular"),
    ("mimo M=2", zero_h31_and_h12, "H31 is singular"),  # the first failure counts
    ("mimo M=2", zero_h12, "H12 is singular"),
    ("mimo M=3", zero_h12, "H12 is singular"),
    ("mimo M=2", zero_slot_of_h23, "H23 is singular"),
    ("mimo M=3", zero_slot_of_h23, "H23 is singular"),
    ("mimo M=2", zero_column_of_h32, "H32 is singular"),
    ("mimo M=3", zero_column_of_h32, "extended H32 is singular"),
    ("mimo M=4", identity_links, "repeated eigenvalues"),
    ("mimo M=5", identity_links, "repeated eigenvalues"),
    ("mimo M=8", identity_links, "repeated eigenvalues"),
    ("siso-k3 n=2", zero_slot_of_h23, r"link \(k=2, j=3\) is singular"),
    ("siso-k3 n=1", unit_links, "transmitter 1 lost full column rank"),
    ("siso-general K=4 n=1", zero_slot_of_h23, r"link \(k=2, j=3\) is singular"),
    ("siso-general K=4 n=1", unit_links, "transmitter 1 lost full column rank"),
]


def assert_fails_alone_in_the_middle(monkeypatch, label, breaks, message):
    """Break the middle trial of a 5-trial stack: it fails with the error it
    gets alone, and every other trial builds as it does alone and gets, from
    the stack's pass, the rates its lone build gets, bit for bit (the
    decompositions a siso build keeps are selected along with the
    precoders). The failed row stays finite through the build, and the
    stack's extension holds exactly the survivors' blocks."""
    config = BUILD_CONFIGS[label]
    draws = []
    draw = ia_lab.evaluation.generate_channels

    def breaking_the_middle(*args):
        channels = draw(*args)
        coeffs = channels.coeffs.copy()
        breaks(coeffs[len(coeffs) // 2])
        draws.append(dataclasses.replace(channels, coeffs=coeffs))
        return draws[-1]

    monkeypatch.setattr(ia_lab.evaluation, "generate_channels", breaking_the_middle)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        [stack] = config.build_trials(range(5))
    [channels] = draws
    survivors = []
    rates = zf_rates(*stack.trial, RHOS)
    for t, (_, built) in enumerate(stack):
        if t != 2:
            scheme, ext = built
            scheme_alone, ext_alone = config.build_on(channels[t])
            for v, w in zip(scheme.precoders, scheme_alone.precoders, strict=True):
                assert v.tobytes() == w.tobytes() and v.strides == w.strides
            [rates_alone] = zf_rates(scheme_alone, ext_alone, RHOS)
            for got in (rates[stack.slots[t]], zf_rates(scheme, ext, RHOS)[0]):
                assert (got is None) == (rates_alone is None)
                assert got is None or got.tobytes() == rates_alone.tobytes()
            survivors.append(ext_alone.coeffs)
            continue
        assert isinstance(built, TRIAL_ERRORS)
        with pytest.raises(type(built), match=message) as alone:
            config.build_on(channels[t])
        assert str(alone.value) == str(built)
    assert np.array_equal(stack.trial[1].coeffs, np.stack(survivors))
    family = ia_lab.families.FAMILIES[config.family]
    assert tuple(stack.trial[0].complements) == family.shared_images(config.K)


@pytest.mark.parametrize("label,breaks,message", BROKEN)
def test_a_broken_channel_fails_alone_in_the_middle_of_a_stack(monkeypatch, label,
                                                                breaks, message):
    assert_fails_alone_in_the_middle(monkeypatch, label, breaks, message)


@pytest.mark.parametrize("label,message", [("mimo M=2", "H23 is singular"),
                                           ("mimo M=3", "extended H23 is singular")])
def test_a_singular_h23_precoder_solve_fails_alone_in_the_middle_of_a_stack(monkeypatch,
                                                                             label, message):
    # the loop map solves with the same H23 (or its extension) first; it reads
    # a zero H23 as the identity here, so only the precoder solve fails
    loop = ia_lab.mimo._loop_matrix

    def loop_on_identity_h23(coeffs, stack):
        coeffs = coeffs.copy()
        coeffs[~coeffs[:, 1, 2, 0].any(axis=(-2, -1)), 1, 2, 0] = np.eye(coeffs.shape[-1])
        return loop(coeffs, stack)

    monkeypatch.setattr(ia_lab.mimo, "_loop_matrix", loop_on_identity_h23)
    assert_fails_alone_in_the_middle(monkeypatch, label, zero_slot_of_h23, message)


@pytest.mark.parametrize("K,trials", [(4, 20), (10, 3)])
def test_a_designed_sweep_builds_and_evaluates_once(monkeypatch, K, trials):
    calls = {"build": 0, "evaluated": 0}
    build, rates = ia_lab.families.build_designed_channel, ia_lab.evaluation.zf_rates

    def counting_build(*args):
        calls["build"] += 1
        return build(*args)

    def counting_rates(scheme, ext, rhos):
        calls["evaluated"] += len(scheme.precoders[0])
        return rates(scheme, ext, rhos)

    monkeypatch.setattr(ia_lab.families, "build_designed_channel", counting_build)
    monkeypatch.setattr(ia_lab.evaluation, "zf_rates", counting_rates)
    table = snr_sweep(SchemeConfig("designed", K=K), GRID, trials, seed=5)
    assert calls == {"build": 1, "evaluated": 1}
    # the table as each trial built and evaluated alone gave it
    doc = json.dumps([[r.snr_db, r.seed, r.rates, r.status] for r in table.records])
    assert hashlib.sha256(doc.encode()).hexdigest() == DESIGNED_TABLES[K]


# SHA-256 of the records of the designed sweeps above, recorded when every
# trial was built and evaluated on its own; K=4's re-recorded when each
# receiver took its complement from the next transmitter's image
DESIGNED_TABLES = {
    4: "e8e64dc833877769466f172e43c13d43a94fc5894bcf4aacb58c4ef8c0525027",
    10: "86e2a394daec31208a9e3b304813bf2401545f193ea9d92993c1d64efd63924d",
}


def test_build_trials_rejects_a_bad_seed():
    with pytest.raises(ParameterError):
        list(SchemeConfig("siso-k3").build_trials([0, -1]))
    # a seed that is not an integer is not cut to one
    with pytest.raises(ParameterError):
        SchemeConfig("siso-k3").build(2.5)


def receiver_stage_calls(monkeypatch, config):
    """(SVD calls, QR calls) of the pass with rates over one stack of 1, 4
    and 8 trials of ``config``, every trial passing."""
    originals = {name: getattr(np.linalg, name) for name in ("svd", "qr")}
    calls = collections.Counter()

    def counting(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return call

    counts = []
    for trials in (1, 4, 8):
        scheme, ext = one_stack(config, range(trials))
        calls.clear()
        for name in originals:
            monkeypatch.setattr(np.linalg, name, counting(name))
        _, _, passed, _ = _pass(scheme, ext, RHOS)
        for name, original in originals.items():
            monkeypatch.setattr(np.linalg, name, original)
        assert passed.all()
        counts.append((calls["svd"], calls["qr"]))
    return counts


@pytest.mark.parametrize("config, svd_calls", [
    *(pytest.param(SchemeConfig("mimo", M=M), 4, id=str(M)) for M in (2, 3, 4)),
    *(pytest.param(SchemeConfig("designed", K=K), 2, id=f"designed K={K}")
      for K in (3, 4, 10))])
def test_receiver_stage_svd_calls_do_not_grow_with_trials(monkeypatch, config, svd_calls):
    # each receiver decomposes one transmitter's image, laid out right after
    # its own streams, and the receivers share one stream count and image
    # width: so one call for the image SVD and one for the projection the
    # gains read (all trials share their image ranks, and every row's gains
    # certify its verdict), not one of each per receiver, at any K. mimo
    # adds one for the span relation's bases of both sides and one for its
    # residual's norm
    assert receiver_stage_calls(monkeypatch, config) == [(svd_calls, 0)] * 3


@pytest.mark.parametrize("label", ["siso-k3 n=1", "siso-general K=4 n=1"])
def test_siso_receiver_stage_calls_do_not_grow_with_trials(monkeypatch, label):
    # receiver 1 decomposes transmitter 2's image among its own products,
    # of fewer than REFLECTOR_ROWS rows: one full-U SVD and one projection;
    # receivers 2..K carry transmitter 1's image, whose complement the build
    # formed and the scheme keeps, and share one QR and one projection, as
    # all trials share its rank
    assert receiver_stage_calls(monkeypatch, CONFIGS[label]) == [(3, 1)] * 3


BATCHED = ["siso-k3 n=1", "siso-general K=4 n=1", "mimo M=2", "mimo M=3", "designed K=3"]


@pytest.mark.parametrize("label", BATCHED)
@pytest.mark.parametrize("trials", [3, 5])
def test_a_pass_over_the_budget_takes_one_receiver_per_batch(monkeypatch, label, trials):
    scheme, ext = one_stack(CONFIGS[label], range(trials))
    T = len(scheme.precoders[0])
    default = [_pass(scheme, ext, rhos) for rhos in (None, RHOS)]
    formed, widths = collections.Counter(), []
    apply, check = ia_lab.channels.ChannelSet.apply, ia_lab.receiver._check

    def counting(ext, k, j, v):
        formed[k, j] += 1
        return apply(ext, k, j, v)

    def recording(joint, *args):
        widths.append(len(joint))
        return check(joint, *args)

    monkeypatch.setattr(ia_lab.channels.ChannelSet, "apply", counting)
    monkeypatch.setattr(ia_lab.receiver, "_check", recording)
    # room for 2T - 1 (receiver, trial) rows, not a multiple of T: one whole
    # receiver per batch, with all its trials
    one = ia_lab.receiver._receiver_bytes(ext.dim, sum(scheme.stream_counts))
    monkeypatch.setattr(ia_lab.receiver, "STACK_BYTES", (2 * T - 1) * one)
    for rhos, (ranks, residuals, passed, rates) in zip((None, RHOS), default):
        formed.clear()
        small = _pass(scheme, ext, rhos)
        assert formed == {(k, j): 1 for k in range(scheme.K) for j in range(scheme.K)}
        assert passed.all()
        assert np.array_equal(small[0], ranks)
        assert np.array_equal(small[1], residuals, equal_nan=True)
        assert small[2].tolist() == passed.tolist()
        if rhos is not None:
            assert small[3].tobytes() == rates.tobytes()
    assert widths == [1] * (2 * scheme.K)


def checked_receivers(monkeypatch):
    """The receivers of each ``_check`` call of a pass, in call order."""
    calls, check = [], ia_lab.receiver._check

    def recording(joint, *args):
        calls.append(list(joint))
        return check(joint, *args)

    monkeypatch.setattr(ia_lab.receiver, "_check", recording)
    return calls


def test_no_receiver_after_a_failed_check_in_a_stack(monkeypatch):
    k3, one = CONFIGS["siso-k3 n=1"].build(4)
    calls = checked_receivers(monkeypatch)
    for trials in (1, 3):
        scheme, ext = stacked([(steer(k3, one), one)] * trials)
        calls.clear()
        ranks, _, passed, _ = _pass(scheme, ext, RHOS)
        # every trial fails receiver 1, and the pass stops there
        assert calls == [[0]] and not passed.any()
        assert not zf_ok(scheme.stream_counts[0], *ranks[1:, 0]).any()
        assert np.all(ranks[:, 1:] == -1)
        calls.clear()
        assert zf_rates(scheme, ext, RHOS) == [None] * trials and calls == [[0]]
        # the checks without rates go on to the last receiver
        calls.clear()
        full, _, _, _ = _pass(scheme, ext)
        assert calls == [[0], [1, 2]] and np.all(full >= 0)


def test_a_stack_of_no_trials_takes_no_batch(monkeypatch):
    [stack] = CONFIGS["siso-k3 n=1"].build_trials(range(2))
    scheme, ext = stack.trial
    calls = checked_receivers(monkeypatch)
    # the pass stops at once: a batch of no trials would divide by zero
    # sizing its relations
    assert zf_rates(scheme[[]], ext[[]], RHOS) == [] and calls == []


def test_a_failed_trial_stays_in_its_stack():
    k3, one = CONFIGS["siso-k3 n=1"].build(4)
    scheme, ext = stacked([(steer(k3, one), one), (k3, one)])
    ranks, _, passed, rates = _pass(scheme, ext, RHOS)
    ok = zf_ok(np.array(scheme.stream_counts)[:, None], *ranks[1:])
    # the bad trial fails receiver 1 and, as the other trial passes, is
    # checked at every receiver
    assert not ok[0, 0] and np.all(ranks[1:, :, 0] >= 0)
    assert ok[:, 1].all()
    assert passed.tolist() == [False, True] and np.all(np.isfinite(rates[1]))
    # the checks without rates give the same ranks, and the desired ones a
    # pass with rates leaves to check_alignment
    full, _, _, _ = _pass(scheme, ext)
    assert np.all(full >= 0) and np.all(ranks[0] == -1)
    assert np.array_equal(full[1:], ranks[1:])
    # the one extension both trials share gives the same answers
    shared = _pass(scheme, one, RHOS)
    assert np.array_equal(shared[0], ranks) and shared[2].tolist() == passed.tolist()
    assert rates[1].tobytes() == shared[3][1].tobytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_sweep_rejects_a_non_finite_grid_point(bad):
    with pytest.raises(ParameterError, match="finite"):
        snr_sweep(CONFIGS["siso-k3 n=1"], [40.0, bad, 60.0], trials=1, seed=0)
    with pytest.raises(ParameterError, match="finite"):
        snr_sweep(CONFIGS["siso-k3 n=1"], [40.0, 60.0, bad], trials=1, seed=0)


STACK_CONFIGS = {
    **{f"mimo M={M}": SchemeConfig("mimo", M=M) for M in (2, 3, 4, 5, 8, 9, 16)},
    **{f"siso-k3 n={n}": SchemeConfig("siso-k3", n=n) for n in (1, 2, 3, 4)},
    **{f"siso-general K={K} n=1": SchemeConfig("siso-general", K=K, n=1) for K in (3, 4)},
    **{f"designed K={K}": SchemeConfig("designed", K=K) for K in (3, 10)},
}


@pytest.mark.parametrize("label", list(STACK_CONFIGS))
def test_a_stacks_rates_equal_each_trial_alone(label):
    # from M=8 on, transmitter 1's rows are Fortran-ordered, and the order
    # in which their column norms are summed follows the layout
    config = STACK_CONFIGS[label]
    scheme, ext = one_stack(config, [_trial_seed(23, t) for t in range(5)])
    if len(scheme.precoders[0]) == 1:  # designed builds one trial for every seed
        scheme, ext = stacked([(scheme[0], ext[0])] * 5)
    assert len(scheme.precoders[0]) == 5
    # the middle trial's transmitter 2 precoder steered onto receiver 1's
    # desired signal; it stays in every batch of the stack, and the trials
    # after it still get, bit for bit, the rates they get alone
    v = np.copy(scheme.precoders[1], order="K")
    v[2] = steer(scheme[2], ext[2]).precoders[1]
    scheme = replaced(scheme, (scheme.precoders[0], v) + scheme.precoders[2:])
    out = zf_rates(scheme, ext, RHOS)
    assert [rates is None for rates in out] == [False, False, True, False, False]
    ranks, _, passed, _ = _pass(scheme, ext, RHOS)
    assert passed.tolist() == [True, True, False, True, True]
    # the failing trial fails its first receiver
    assert not zf_ok(scheme.stream_counts[0], *ranks[1:, 0, 2])
    for t, rates in enumerate(out):
        [alone] = zf_rates(scheme[t], ext[t], RHOS)
        assert (rates is None) == (alone is None)
        ranks_alone, _, _, _ = _pass(scheme[t][None], ext[t], RHOS)
        if rates is not None:
            assert rates.tobytes() == alone.tobytes()
            assert np.array_equal(ranks[..., t], ranks_alone[..., 0])
        else:
            # the failed trial alone stops at its failing receiver, which
            # the stack goes on from
            assert (pass_checks(scheme, ext, ranks, t)
                    == pass_checks(scheme, ext, ranks_alone))


def test_an_over_budget_trial_stops_at_its_failing_receiver(monkeypatch):
    # a default-law L=275 trial (sweep root 1002 of the large benchmark
    # workload), broken so that receiver 1 fails: its receivers go one at a
    # time, and the pass stops at the first
    config = SchemeConfig("siso-general", K=4, n=2)
    seed = _trial_seed(1002, 0)
    scheme, ext = one_stack(config, [seed])
    scheme = steer(scheme[0], ext[0])[None]
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    ranks, _, passed, _ = _pass(scheme, ext, RHOS)
    ok = zf_ok(np.array(scheme.stream_counts), *ranks[1:, :, 0])
    assert not passed[0] and ok.tolist() == [False, False, False, False]
    assert np.all(ranks[:, 1:] == -1)
    # receiver 1's 243 streams take one QR of their projected channel, whose
    # inverse shows them short by power steps, so it records -1 as its
    # joint rank and takes no SVD; no rates are taken. None for receivers 2
    # to 4, nor for transmitter 1's complement. The rank of receiver 1's
    # 275 x 32 image takes none: the certificate on its R's inverse decides it
    assert ranks[2, 0, 0] == -1
    assert shapes == []
    assert zf_rates(scheme, ext, RHOS) == [None]
    assert shapes == []


def _two_trial_extension():
    return extend_channel(generate_channels(3, 1, 3, seed=[1, 2]), 3)


SINGLE_TRIAL_HELPERS = {
    "mimo.loop_matrix": lambda tmp: ia_lab.mimo.loop_matrix(
        generate_channels(3, 2, 1, seed=[1, 2, 3])),
    "siso.loop_gains": lambda tmp: ia_lab.siso.loop_gains(_two_trial_extension()),
    "siso.cross_pair_gains": lambda tmp: ia_lab.siso.cross_pair_gains(_two_trial_extension()),
    "separability_matrix": lambda tmp: ia_lab.verification.separability_matrix(
        _two_trial_extension(), 1),
    "save_channels": lambda tmp: ia_lab.channels.save_channels(
        generate_channels(3, 1, 3, seed=[1, 2]), tmp / "channels.json"),
    "build_on": lambda tmp: SchemeConfig("siso-k3").build_on(
        generate_channels(3, 1, 3, seed=[1, 2])),
}


@pytest.mark.parametrize("helper", sorted(SINGLE_TRIAL_HELPERS))
def test_single_trial_helpers_refuse_a_stack(tmp_path, helper):
    with pytest.raises(ShapeError):
        SINGLE_TRIAL_HELPERS[helper](tmp_path)
    assert not (tmp_path / "channels.json").exists()


def test_single_trial_helpers_take_the_stack_of_one_as_its_trial():
    ch = generate_channels(3, 2, 1, seed=3)
    assert np.array_equal(ia_lab.mimo.loop_matrix(ch[None]), ia_lab.mimo.loop_matrix(ch))
    ext = extend_channel(generate_channels(3, 1, 3, seed=3), 3)
    assert np.array_equal(ia_lab.siso.loop_gains(ext[None]), ia_lab.siso.loop_gains(ext))


def test_none_takes_a_single_trial_and_a_trial_index_a_stack():
    channels = generate_channels(3, 2, 1, seed=[1, 2, 3])
    (scheme, ext), _ = ia_lab.mimo.build_mimo_even(channels)
    for stack in (channels, ext, scheme):
        with pytest.raises(ShapeError, match="None"):
            stack[None]
        with pytest.raises(ShapeError, match="trial index"):
            stack[1][0]
        assert stack[1][None].stacked and not stack[1][None][0].stacked
    with pytest.raises(ShapeError):
        ia_lab.mimo.loop_matrix(channels[None])


def test_the_survivors_extension_is_read_only_and_holds_their_seeds():
    channels = generate_channels(3, 1, 3, seed=[5, 6, 7, 8])
    coeffs = channels.coeffs.copy()
    coeffs[1, 0, 1, 2] = 0.0  # trial 1's link (1, 2) is singular on slot 3
    (scheme, ext), slots = ia_lab.siso.build_precoders_k3(
        dataclasses.replace(channels, coeffs=coeffs), 1)
    assert isinstance(slots[1], TRIAL_ERRORS) and slots[::2] == (0, 1) and slots[3] == 2
    assert ext.seed == (5, 7, 8) and len(scheme.precoders[0]) == 3
    assert not ext.coeffs.flags.writeable
    assert np.array_equal(ext.coeffs, channels.coeffs[[0, 2, 3]])
