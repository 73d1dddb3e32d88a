"""The per-model scalar primitives of the radio layer.

Each propagation model implements ``rx_power_dbm_from_distance`` and each
reception model ``decide_code``; the position form and ``decide()`` are
built on them.  These tests pin that the derived forms give the same bits
and consume the same RNG draws as the primitives, and that the
noise-plus-interference memo of ``SnrThresholdReception`` stays bounded
without changing a decision.
"""

import math
import random

import pytest

from repro.geometry import Vec2
from repro.radio.interference import NO_SIGNAL_DBM, combine_dbm, dbm_to_mw
from repro.radio.propagation import (
    FreeSpacePropagation,
    LogNormalShadowing,
    NakagamiFading,
    TwoRayGroundPropagation,
    UnitDiskPropagation,
)
from repro.radio.reception import (
    BATCH_COLLISION,
    BATCH_RECEIVED,
    BATCH_WEAK_SIGNAL,
    NPI_MEMO_MAX,
    ProbabilisticReception,
    ReceptionDecision,
    SnrThresholdReception,
)

CODE_OF = {
    ReceptionDecision.RECEIVED: BATCH_RECEIVED,
    ReceptionDecision.WEAK_SIGNAL: BATCH_WEAK_SIGNAL,
    ReceptionDecision.COLLISION: BATCH_COLLISION,
}

#: name -> factory(rng) for every propagation kind.
PROPAGATION_KINDS = {
    "unit_disk": lambda rng: UnitDiskPropagation(250.0),
    "free_space": lambda rng: FreeSpacePropagation(),
    "two_ray": lambda rng: TwoRayGroundPropagation(),
    "shadowing": lambda rng: LogNormalShadowing(
        path_loss_exponent=3.0, sigma_db=6.0, reference_distance=1.0, rng=rng
    ),
    "nakagami": lambda rng: NakagamiFading(m=1.5, rng=rng),
}


def _positions(seed, count=300):
    layout = random.Random(seed)
    pairs = []
    for _ in range(count):
        tx = Vec2(layout.uniform(-600.0, 600.0), layout.uniform(-600.0, 600.0))
        # Some receivers on the transmitter, some inside the 1 m clamp.
        scale = layout.choice((0.0, 0.5, 10.0, 300.0, 700.0))
        rx = Vec2(tx.x + layout.uniform(-scale, scale), tx.y + layout.uniform(-scale, scale))
        pairs.append((tx, rx))
    return pairs


def _same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("kind", sorted(PROPAGATION_KINDS))
def test_position_form_equals_distance_form(kind):
    rng_a, rng_b = random.Random(17), random.Random(17)
    by_position = PROPAGATION_KINDS[kind](rng_a)
    by_distance = PROPAGATION_KINDS[kind](rng_b)
    for tx_pos, rx_pos in _positions(5):
        for tx_power in (20.0, 7.5):
            got = by_position.rx_power_dbm(tx_power, tx_pos, rx_pos)
            want = by_distance.rx_power_dbm_from_distance(
                tx_power, tx_pos.distance_to(rx_pos)
            )
            assert _same_bits(got, want)
    assert rng_a.getstate() == rng_b.getstate()


@pytest.mark.parametrize("sigma", [0.0, 6.0])
def test_shadowing_inlines_the_mean_path_loss(sigma):
    """One gauss(0, sigma) draw (none at sigma 0) off the mean path loss."""
    rng_a, rng_b = random.Random(3), random.Random(3)
    model = LogNormalShadowing(path_loss_exponent=2.7, sigma_db=sigma,
                               reference_distance=2.0, rng=rng_a)
    for distance in (0.0, 1.0, 2.0, 2.5, 99.9, 250.0, 1234.5):
        shadowing = rng_b.gauss(0.0, sigma) if sigma > 0 else 0.0
        want = 20.0 - model.mean_path_loss_db(distance) - shadowing
        assert _same_bits(model.rx_power_dbm_from_distance(20.0, distance), want)
    assert rng_a.getstate() == rng_b.getstate()


def test_random_models_refuse_unseeded_draws():
    with pytest.raises(ValueError, match="seeded rng"):
        LogNormalShadowing(sigma_db=6.0).rx_power_dbm_from_distance(20.0, 100.0)
    with pytest.raises(ValueError, match="seeded rng"):
        NakagamiFading().rx_power_dbm(20.0, Vec2(0.0, 0.0), Vec2(100.0, 0.0))
    # No draw, no rng needed.
    quiet = LogNormalShadowing(sigma_db=0.0)
    assert quiet.rx_power_dbm_from_distance(20.0, 100.0) == quiet.mean_rx_power_dbm(
        20.0, 100.0
    )


def _signal_levels(seed, count=400):
    levels = random.Random(seed)
    rx = [levels.choice((levels.uniform(-110.0, -40.0), -92.0, NO_SIGNAL_DBM))
          for _ in range(count)]
    interference = [
        levels.choice((NO_SIGNAL_DBM, -99.0, levels.uniform(-120.0, -50.0)))
        for _ in range(count)
    ]
    return list(zip(rx, interference))


@pytest.mark.parametrize(
    "make",
    [
        SnrThresholdReception,
        lambda: SnrThresholdReception(noise_floor_dbm=-90.0, sensitivity_dbm=-1000.0),
        ProbabilisticReception,
        lambda: ProbabilisticReception(sensitivity_dbm=-1000.0),
    ],
)
def test_decide_matches_decide_code(make):
    model = make()
    rng_a, rng_b = random.Random(9), random.Random(9)
    for rx, interference in _signal_levels(1):
        outcome = model.decide(rx, interference, rng_a)
        code = model.decide_code(rx, interference, rng_b)
        assert CODE_OF[outcome.decision] == code
        if rx < model.sensitivity_dbm:
            assert outcome.sinr_db == -math.inf
        else:
            assert _same_bits(outcome.sinr_db, model.sinr_db(rx, interference))
    assert rng_a.getstate() == rng_b.getstate()


def _reference_probabilistic(model, rx, interference, rng):
    """The decision written out from its definition, SINR and all."""
    if rx < model.sensitivity_dbm:
        return BATCH_WEAK_SIGNAL
    sinr = model.sinr_db(rx, interference)
    probability = 1.0 / (
        1.0 + math.exp(-(sinr - model.snr_threshold_db) / model.steepness_db)
    )
    if rng.random() <= probability:
        return BATCH_RECEIVED
    if dbm_to_mw(interference) > dbm_to_mw(model.noise_floor_dbm):
        return BATCH_COLLISION
    return BATCH_WEAK_SIGNAL


def test_probabilistic_decision_follows_its_definition():
    model = ProbabilisticReception()
    rng_a, rng_b = random.Random(4), random.Random(4)
    for rx, interference in _signal_levels(2):
        assert model.decide_code(rx, interference, rng_a) == _reference_probabilistic(
            model, rx, interference, rng_b
        )
    assert rng_a.getstate() == rng_b.getstate()


def _reference_threshold(model, rx, interference):
    if rx < model.sensitivity_dbm:
        return BATCH_WEAK_SIGNAL
    if rx - combine_dbm([model.noise_floor_dbm, interference]) < model.snr_threshold_db:
        return BATCH_COLLISION
    return BATCH_RECEIVED


class TestNoisePlusInterferenceMemo:
    def test_batch_memo_stays_bounded_on_continuous_levels(self):
        np = pytest.importorskip("numpy")
        model = SnrThresholdReception()
        levels = np.random.default_rng(11)
        peak = 0
        for _ in range(50):
            interference = levels.uniform(-110.0, -60.0, 200)
            rx = levels.uniform(-95.0, -40.0, 200)
            codes = model.decide_batch(rx, interference)
            peak = max(peak, len(model._npi_memo))
            want = [
                _reference_threshold(model, r, i)
                for r, i in zip(rx.tolist(), interference.tolist())
            ]
            assert codes.tolist() == want
        # 10,000 distinct levels went through; the memo was cleared on the way.
        assert peak <= NPI_MEMO_MAX
        assert len(model._npi_memo) < 50 * 200

    def test_scalar_memo_stays_bounded_and_decisions_survive_a_clear(self):
        model = SnrThresholdReception()
        levels = random.Random(12)
        first = model.decide_code(-60.0, -70.0)
        assert first == _reference_threshold(model, -60.0, -70.0)
        cleared = False
        for _ in range(NPI_MEMO_MAX + 500):
            rx = levels.uniform(-95.0, -40.0)
            interference = levels.uniform(-110.0, -60.0)
            before = len(model._npi_memo)
            assert model.decide_code(rx, interference) == _reference_threshold(
                model, rx, interference
            )
            cleared = cleared or len(model._npi_memo) < before
            assert len(model._npi_memo) <= NPI_MEMO_MAX
        assert cleared
        # A level memoised before the clear decides the same after it.
        assert model.decide_code(-60.0, -70.0) == first
