"""Reception models: decide whether a frame is successfully received."""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from repro.radio.interference import (
    NO_SIGNAL_DBM,
    combine_dbm,
    dbm_to_mw,
    mw_to_dbm,
)

#: Thermal noise floor for a 10 MHz DSRC channel plus a typical noise figure.
DEFAULT_NOISE_FLOOR_DBM = -99.0

#: Typical receiver sensitivity for IEEE 802.11p at low data rates.
DEFAULT_SENSITIVITY_DBM = -92.0


class ReceptionDecision(Enum):
    """Outcome of a reception attempt, used for loss accounting."""

    RECEIVED = "received"
    WEAK_SIGNAL = "weak_signal"
    COLLISION = "collision"


#: Integer decision codes: what :meth:`ReceptionModel.decide_code` returns
#: and :meth:`ReceptionModel.decide_batch` packs (plain ints, so decision
#: arrays stay dense int8).
BATCH_RECEIVED = 0
BATCH_WEAK_SIGNAL = 1
BATCH_COLLISION = 2

#: Decision by code (indexed by the ``BATCH_*`` values above).
_DECISIONS = (
    ReceptionDecision.RECEIVED,
    ReceptionDecision.WEAK_SIGNAL,
    ReceptionDecision.COLLISION,
)

#: Size at which :class:`SnrThresholdReception` clears its memo.  A disk
#: channel repeats a handful of levels; continuous channels (two-ray, free
#: space) never repeat one, so an unbounded memo grows with every receiver.
NPI_MEMO_MAX = 4096


@dataclass
class ReceptionOutcome:
    """Decision plus the SINR that produced it (for tracing/analysis)."""

    decision: ReceptionDecision
    sinr_db: float

    @property
    def ok(self) -> bool:
        """True when the frame was received."""
        return self.decision is ReceptionDecision.RECEIVED


class ReceptionModel(ABC):
    """Base class for reception decisions.

    Each model implements one primitive, :meth:`decide_code`; the medium
    calls it once per receiver.  :meth:`decide` (decision plus SINR) and
    :meth:`decide_batch` (an int8 array of codes) are built on it.
    """

    def __init__(
        self,
        sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
        noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
    ) -> None:
        self.sensitivity_dbm = sensitivity_dbm
        self.noise_floor_dbm = noise_floor_dbm

    def sinr_db(self, rx_power_dbm: float, interference_dbm: float) -> float:
        """Signal-to-interference-plus-noise ratio in dB."""
        if rx_power_dbm <= NO_SIGNAL_DBM:
            return -math.inf
        noise_plus_interference = combine_dbm([self.noise_floor_dbm, interference_dbm])
        return rx_power_dbm - noise_plus_interference

    @abstractmethod
    def decide_code(
        self,
        rx_power_dbm: float,
        interference_dbm: float,
        rng: Optional[random.Random] = None,
    ) -> int:
        """``BATCH_RECEIVED`` / ``BATCH_WEAK_SIGNAL`` / ``BATCH_COLLISION``
        for a frame with the given signal and interference."""

    def decide(
        self,
        rx_power_dbm: float,
        interference_dbm: float,
        rng: Optional[random.Random] = None,
    ) -> ReceptionOutcome:
        """:meth:`decide_code` as a decision plus the SINR behind it.

        The SINR is ``-inf`` below the sensitivity (the signal never reached
        the decision) and :meth:`sinr_db` otherwise.  The RNG is consumed
        exactly as by :meth:`decide_code`.
        """
        code = self.decide_code(rx_power_dbm, interference_dbm, rng)
        weak = rx_power_dbm < self.sensitivity_dbm
        sinr = -math.inf if weak else self.sinr_db(rx_power_dbm, interference_dbm)
        return ReceptionOutcome(_DECISIONS[code], sinr)

    def decide_batch(self, rx_power_dbm, interference_dbm, rng=None):
        """Decision codes (int8 array) for arrays of signal and interference.

        The base implementation loops :meth:`decide_code` in element order,
        which is exact for every model and consumes the RNG exactly as a
        scalar loop over the same inputs would; deterministic subclasses
        override it with array expressions.
        """
        from repro.sim.position_store import require_numpy

        np = require_numpy("decide_batch")
        codes = np.empty(len(rx_power_dbm), dtype=np.int8)
        for i in range(len(codes)):
            codes[i] = self.decide_code(float(rx_power_dbm[i]), float(interference_dbm[i]), rng)
        return codes


class SnrThresholdReception(ReceptionModel):
    """Deterministic SINR-threshold reception.

    A frame is received iff the signal exceeds the sensitivity *and* the SINR
    exceeds the capture threshold.  Losing to interference is reported as a
    collision, losing to weak signal as a range failure -- the statistics
    collector keeps those separate because the broadcast-storm analysis
    (Fig. 2 / Table I) needs the collision count.
    """

    def __init__(
        self,
        snr_threshold_db: float = 10.0,
        sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
        noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
    ) -> None:
        super().__init__(sensitivity_dbm, noise_floor_dbm)
        self.snr_threshold_db = snr_threshold_db
        #: interference dBm -> noise-plus-interference dBm for the noise
        #: floor ``_npi_noise``; cleared when the floor is reassigned or the
        #: memo reaches :data:`NPI_MEMO_MAX` entries.
        self._npi_memo: Dict[float, float] = {}
        self._npi_noise = noise_floor_dbm

    def _noise_plus_interference(self, interference_dbm: float) -> float:
        """``combine_dbm([noise_floor, interference])``, memoised per level.

        The one place both the scalar and the batch decision get the SINR's
        denominator; a memo hit returns the very value :meth:`sinr_db`
        would compute, so decisions are bit-identical to it.
        """
        memo = self._npi_memo
        if self._npi_noise != self.noise_floor_dbm:
            memo.clear()
            self._npi_noise = self.noise_floor_dbm
        value = memo.get(interference_dbm)
        if value is None:
            if len(memo) >= NPI_MEMO_MAX:
                memo.clear()
            value = combine_dbm([self.noise_floor_dbm, interference_dbm])
            memo[interference_dbm] = value
        return value

    def decide_code(
        self,
        rx_power_dbm: float,
        interference_dbm: float,
        rng: Optional[random.Random] = None,
    ) -> int:
        """Threshold test on sensitivity and SINR."""
        if rx_power_dbm < self.sensitivity_dbm:
            return BATCH_WEAK_SIGNAL
        if (
            rx_power_dbm - self._noise_plus_interference(interference_dbm)
            < self.snr_threshold_db
        ):
            return BATCH_COLLISION
        return BATCH_RECEIVED

    def decide_batch(self, rx_power_dbm, interference_dbm, rng=None):
        """Vectorized threshold test, bit-identical to :meth:`decide_code`.

        The noise-plus-interference term depends only on the element's
        interference level, so it is looked up once per *distinct* level
        (:meth:`_noise_plus_interference`) and scattered back.  The SINR
        subtraction and both comparisons are exact in IEEE-754.
        """
        from repro.sim.position_store import require_numpy

        np = require_numpy("decide_batch")
        rx = np.asarray(rx_power_dbm, dtype=np.float64)
        levels, inverse = np.unique(
            np.asarray(interference_dbm, dtype=np.float64), return_inverse=True
        )
        npi = self._noise_plus_interference
        sinr = rx - np.array([npi(level) for level in levels.tolist()], dtype=np.float64)[inverse]
        codes = np.zeros(len(rx), dtype=np.int8)  # BATCH_RECEIVED everywhere...
        codes[sinr < self.snr_threshold_db] = BATCH_COLLISION
        codes[rx < self.sensitivity_dbm] = BATCH_WEAK_SIGNAL
        return codes


class ProbabilisticReception(ReceptionModel):
    """SINR-dependent probabilistic reception.

    The packet-success probability follows a logistic curve centred on the
    SINR threshold; this is a smooth stand-in for the BER-derived curves of a
    real modem and gives the REAR protocol (Sec. VII.B) a well-defined
    "receipt probability" to estimate from signal strength.
    """

    def __init__(
        self,
        snr_threshold_db: float = 10.0,
        steepness_db: float = 2.0,
        sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
        noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
    ) -> None:
        super().__init__(sensitivity_dbm, noise_floor_dbm)
        if steepness_db <= 0:
            raise ValueError("steepness must be positive")
        self.snr_threshold_db = snr_threshold_db
        self.steepness_db = steepness_db

    def _probability_at(self, sinr: float) -> float:
        return 1.0 / (1.0 + math.exp(-(sinr - self.snr_threshold_db) / self.steepness_db))

    def success_probability(self, rx_power_dbm: float, interference_dbm: float) -> float:
        """Packet success probability for the given signal and interference."""
        if rx_power_dbm < self.sensitivity_dbm:
            return 0.0
        return self._probability_at(self.sinr_db(rx_power_dbm, interference_dbm))

    def decide_code(
        self,
        rx_power_dbm: float,
        interference_dbm: float,
        rng: Optional[random.Random] = None,
    ) -> int:
        """Bernoulli draw against the logistic success probability."""
        if rx_power_dbm < self.sensitivity_dbm:
            return BATCH_WEAK_SIGNAL
        probability = self._probability_at(self.sinr_db(rx_power_dbm, interference_dbm))
        draw = rng.random() if rng is not None else 0.5
        if draw <= probability:
            return BATCH_RECEIVED
        # Attribute probabilistic losses to interference when interference is
        # the dominant impairment, otherwise to weak signal.
        if dbm_to_mw(interference_dbm) > dbm_to_mw(self.noise_floor_dbm):
            return BATCH_COLLISION
        return BATCH_WEAK_SIGNAL


__all__ = [
    "ReceptionDecision",
    "ReceptionOutcome",
    "ReceptionModel",
    "SnrThresholdReception",
    "ProbabilisticReception",
    "BATCH_RECEIVED",
    "BATCH_WEAK_SIGNAL",
    "BATCH_COLLISION",
    "DEFAULT_NOISE_FLOOR_DBM",
    "DEFAULT_SENSITIVITY_DBM",
    "NPI_MEMO_MAX",
    "mw_to_dbm",
]
