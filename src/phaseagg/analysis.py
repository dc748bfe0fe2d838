"""Privacy evidence, the delayed-message attack oracle, and overhead audits.

The masking design promises that anything the aggregator sees is uniform
on the phase grid and carries no information about the plaintext digits.
This module measures that promise (chi-square uniformity, plug-in mutual
information, an exhaustive small-grid exactness check), demonstrates the
delayed-client attack against the naive recovery and its failure against
the private-phase protocol from each round's view alone, verifies the
communication-count formulas as exact integers, and quantifies the one
leak the scalar-mask design has: pairwise differences between a
message's own symbols.

Every test here is seeded and deterministic.  Thresholds are fixed at
significance 0.01 and sample-size floors (100 samples per histogram cell)
are enforced, which keeps the false-failure probability of the whole
suite well under 1e-3.

``scipy`` is loaded only by the two tests that compute a p-value: the
chi-square test in `chi_square_uniformity` and the binomial test in the
alg2 branch of `delayed_client_attack`.  It is imported inside those
functions, so `import phaseagg` and a `phaseagg run` never load it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import rng, turns
from .channel import sample_round_channel
from .codec import QuantizationConfig
from .config import ALG1, ALG2
from .errors import UnderpoweredTestError
from .masking import TWO_GROUP, GroupAssignment, assign_two_groups
from .protocol import run_round
from .transcript import RoundTranscript, delayed_message_estimate

ALPHA = 0.01
MIN_SAMPLES_PER_CELL = 100


@dataclass(frozen=True)
class UniformityReport:
    """Chi-square goodness of fit against the uniform distribution on arcs."""

    sample_count: int
    bins: int
    statistic: float
    p_value: float
    passed: bool
    alpha: float = ALPHA


def bin_turns(samples, bins: int) -> np.ndarray:
    """Equal-arc bin index for each grid value: floor(v * bins / 2**32), in uint64."""
    arr = turns.as_vector(np.asarray(samples).reshape(-1)).astype(np.uint64)
    return ((arr * np.uint64(bins)) >> np.uint64(turns.GRID_BITS)).astype(np.int64)


def chi_square_uniformity(samples, bins: int = 16) -> UniformityReport:
    """Test a sample of grid phases for uniformity over equal arcs."""
    if bins < 8:
        raise UnderpoweredTestError(f"need at least 8 bins, got {bins}")
    arr = np.asarray(samples).reshape(-1)
    if arr.size < MIN_SAMPLES_PER_CELL * bins:
        raise UnderpoweredTestError(
            f"need at least {MIN_SAMPLES_PER_CELL * bins} samples for {bins} bins, "
            f"got {arr.size}"
        )
    import scipy.stats

    counts = np.bincount(bin_turns(arr, bins), minlength=bins)
    statistic, p_value = scipy.stats.chisquare(counts)
    return UniformityReport(sample_count=int(arr.size), bins=bins,
                            statistic=float(statistic), p_value=float(p_value),
                            passed=bool(p_value >= ALPHA))


def _plugin_mi_bits(x_codes: np.ndarray, y_codes: np.ndarray) -> float:
    """Plug-in mutual information of two discrete code sequences, in bits."""
    n = x_codes.size
    nx = int(x_codes.max()) + 1
    ny = int(y_codes.max()) + 1
    joint = np.bincount(x_codes * ny + y_codes, minlength=nx * ny).reshape(nx, ny)
    pxy = joint / n
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    mask = pxy > 0
    return float(np.sum(pxy[mask] * np.log2(pxy[mask] / (px @ py)[mask])))


def mutual_information_estimate(x, y, bins: int = 16) -> float:
    """Plug-in MI in bits between discrete labels x and grid phases y.

    y is binned into equal arcs; the sample-count floor scales with the
    full contingency table so the estimator's bias stays far below the
    0.01-bit acceptance bound.
    """
    x = np.asarray(x).reshape(-1)
    y_arr = np.asarray(y).reshape(-1)
    if x.size != y_arr.size:
        raise ValueError("x and y must be paired samples of equal length")
    _, x_codes = np.unique(x, return_inverse=True)
    alphabet = int(x_codes.max()) + 1
    if x.size < MIN_SAMPLES_PER_CELL * bins * alphabet:
        raise UnderpoweredTestError(
            f"need at least {MIN_SAMPLES_PER_CELL * bins * alphabet} pairs for "
            f"{bins} bins and {alphabet} labels, got {x.size}"
        )
    return _plugin_mi_bits(x_codes, bin_turns(y_arr, bins))


@dataclass(frozen=True)
class SmallGridReport:
    """Exhaustive masking check on a reduced grid.

    Enumerates every (plaintext, mask) combination on a 2**grid_bits grid
    and verifies the masked value is exactly uniform conditioned on each
    plaintext, hence carries exactly zero information about it.
    """

    grid_size: int
    plaintexts: tuple[int, ...]
    conditionals_uniform: bool
    mutual_information_bits: float


def exact_masking_information(plaintexts: Sequence[int],
                              grid_bits: int = 4) -> SmallGridReport:
    """Exact conditional distribution of masked values on a small grid."""
    size = 1 << grid_bits
    values = tuple(int(p) % size for p in plaintexts)
    if len(set(values)) != len(values):
        raise ValueError("plaintexts must be distinct modulo the grid size")
    x_codes = []
    y_codes = []
    joint = np.zeros((len(values), size), dtype=np.int64)
    for xi, x in enumerate(values):
        for phi in range(size):
            y = (x + phi) % size
            joint[xi, y] += 1
            x_codes.append(xi)
            y_codes.append(y)
    conditionals_uniform = bool(np.all(joint == joint[0, 0]))
    mi = _plugin_mi_bits(np.array(x_codes), np.array(y_codes))
    return SmallGridReport(grid_size=size, plaintexts=values,
                           conditionals_uniform=conditionals_uniform,
                           mutual_information_bits=mi)


@dataclass
class AttackOutcome:
    """What an honest-but-curious aggregator extracts from a delayed message."""

    scenario: str
    trials: int = 0
    modulus: int = 0
    guessing_baseline: float = 0.0
    full_recoveries: int = 0
    full_recovery_rate: float = 0.0
    element_accuracy: float = 0.0
    element_mismatch_rate: float = 0.0
    binomial_p_value: float | None = None
    mutual_information_bits: float | None = None
    succeeded: bool = False

    def to_json_dict(self) -> dict:
        # Every attack that returns has run all its trials.
        return dict(asdict(self), status="completed")


def delayed_client_attack(version: str, *,
                          assignment: GroupAssignment | None = None,
                          cfg: QuantizationConfig | None = None,
                          dimension: int = 8, trials: int = 400,
                          seed: int = 2024, delayed: int = 0,
                          per_symbol: bool = False) -> AttackOutcome:
    """Replay the delayed-message attack: per trial, one round, its estimate and the score.

    Each trial's `run_round` presumes `delayed` dropped, reveals the
    survivor shares of its group mask, and holds its late message in the
    view, which `transcript.delayed_message_estimate` reads alone; only
    the score sees the digits.  Under the naive group-mask-only recovery
    the digits come back exactly; under the private-phase protocol a
    uniform residual remains and recovery collapses to 1-in-M guessing.
    Masks are scalar, or with `per_symbol` one per symbol.  No trial is a ValueError;
    `run_round` refuses an unknown version or delayed client in the first trial.

    `version` picks the protocol: `ALG1` with the naive recovery (the
    outcome's scenario is "alg1_naive_remedy") or `ALG2` (scenario "alg2").
    `assignment` defaults to `assign_two_groups(4, seed)`, and `cfg` to
    the auto modulus for 4 levels and clip 1.0 at the assignment's client
    count.
    """
    if trials < 1:
        raise ValueError(f"the attack needs at least one trial, got {trials}")
    if assignment is None:
        assignment = assign_two_groups(4, seed)
    num_clients = assignment.num_clients
    if cfg is None:
        cfg = QuantizationConfig.with_auto_modulus(clip=1.0, levels=4,
                                                   max_clients=num_clients)
    levels = cfg.levels
    digit_gen = rng.keyed_generator(seed, rng.DATA_DOMAIN)
    truths, estimates = [], []
    for t in range(trials):
        digits = [digit_gen.integers(0, levels, size=dimension)
                  for _ in range(num_clients)]
        view = run_round(digits, assignment, sample_round_channel(num_clients, t, seed), cfg,
                         version=version, seed=seed, delayed=delayed,
                         per_symbol=per_symbol, naive_remedy=(version == ALG1))
        truths.append(digits[delayed])
        estimates.append(delayed_message_estimate(view, cfg))
    x, y = (np.array(v, dtype=np.int64).reshape(trials, dimension) for v in (truths, estimates))
    hits = x == y
    full, accuracy = int(hits.all(axis=1).sum()), int(hits.sum()) / hits.size
    outcome = AttackOutcome(
        scenario="alg1_naive_remedy" if version == ALG1 else ALG2, trials=trials,
        modulus=cfg.modulus, guessing_baseline=1.0 / cfg.modulus,
        full_recoveries=full, full_recovery_rate=full / trials, element_accuracy=accuracy,
        element_mismatch_rate=1.0 - accuracy, succeeded=(full == trials))
    if version == ALG2:
        # One Bernoulli trial per independent residual.  A scalar residual
        # shifts every element of a message by the same offset, so element
        # hits within a round are perfectly correlated and only rounds
        # count; per symbol each element's residual is its own stream word.
        import scipy.stats

        k, n = (int(hits.sum()), hits.size) if per_symbol else (full, trials)
        outcome.binomial_p_value = float(scipy.stats.binomtest(k, n, 1.0 / cfg.modulus).pvalue)
        if x.size >= MIN_SAMPLES_PER_CELL * cfg.modulus * levels:
            outcome.mutual_information_bits = _plugin_mi_bits(x.ravel(), y.ravel())
    return outcome


@dataclass(frozen=True)
class OverheadReport:
    """Measured communication counts against the closed-form values."""

    mode: str
    num_clients: int
    rounds: int
    group_parameters: dict
    measured_per_round: int
    formula_per_round: int
    exact_match: bool
    recovery_messages_exact: bool
    # The first failed count as one sentence, or None; not part of the JSON.
    failure: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "num_clients": self.num_clients,
            "rounds": self.rounds,
            "group_parameters": dict(self.group_parameters),
            "measured_per_round": self.measured_per_round,
            "formula_per_round": self.formula_per_round,
            "exact_match": self.exact_match,
            "recovery_messages_exact": self.recovery_messages_exact,
        }


def _phase_estimation_formula(assignment: GroupAssignment) -> tuple[int, dict]:
    """The phase estimations one round of `assignment` must measure, and its parameters."""
    n = assignment.num_clients
    if assignment.mode == TWO_GROUP:
        l = assignment.plus_size()
        return l * (n - l), {"l": l}
    k = assignment.num_groups
    sub = assignment.subgroup_size
    last = n - 2 * (k - 1) * sub
    return (k - 1) * sub * sub + (last // 2) * ((last + 1) // 2), {"K": k, "L": sub}


class OverheadAudit:
    """`verify_overhead`'s checks, fed one transcript at a time.

    `add` checks one round and returns its transcript, so a stream can be
    checked as it passes (`map(audit.add, stream)`) while another consumer,
    such as `transcript.write_transcripts`, takes it; `report` gives the
    verdict once the stream ends.  The audit keeps the first round's
    formula and the first failure, never the transcripts.
    """

    def __init__(self):
        self.rounds = 0
        self.exact = self.recovery_exact = True
        self.failure: str | None = None

    def add(self, t: RoundTranscript) -> RoundTranscript:
        """Check round `t`'s phase-estimation and recovery counts; return `t`."""
        self.rounds += 1
        if self.rounds == 1:
            self.assignment, self.first_measured = t.assignment, t.counters["phase_estimations"]
            self.formula, self.params = _phase_estimation_formula(t.assignment)
        measured = t.counters["phase_estimations"]
        if measured != self.formula:
            self.exact = False
            self._fail(f"overhead check failed: round {t.iteration} measured {measured} "
                       f"phase estimations, the formula gives {self.formula}")
        absent = set(t.dropped)
        if t.delayed is not None:
            absent.add(t.delayed)
        for i in sorted(absent):
            expected = len(t.assignment.answerers(i, absent)[0])
            shares = sum(len(r["revealers"]) for r in t.reveals
                         if r["kind"] == "mask-shares" and r["dropped"] == i)
            if shares != expected:
                self.recovery_exact = False
                self._fail(f"recovery check failed: round {t.iteration} revealed {shares} "
                           f"mask shares of client {i}, {expected} expected")
        return t

    def _fail(self, message: str) -> None:
        if self.failure is None:
            self.failure = message

    def report(self) -> OverheadReport:
        """The verdict on every round added; ValueError if none was."""
        if not self.rounds:
            raise ValueError("no transcripts to verify")
        return OverheadReport(
            mode=self.assignment.mode, num_clients=self.assignment.num_clients,
            rounds=self.rounds, group_parameters=self.params,
            measured_per_round=self.first_measured, formula_per_round=self.formula,
            exact_match=self.exact, recovery_messages_exact=self.recovery_exact,
            failure=self.failure,
        )


def verify_overhead(transcripts: Iterable[RoundTranscript]) -> OverheadReport:
    """Check the phase-estimation and recovery counts of transcripts as exact integers.

    Each is a `RoundTranscript`, from `run_round` or read back from its line
    by `transcript.read_transcript_line`.  Two-group mode must measure
    l*(N-l) estimations per round (the (N/2)^2 of an even split).  Subgroup
    mode must measure (K-1)*L^2 + ceil(m/2)*floor(m/2), where m = N -
    2(K-1)L is the last group's size: `masking.assign_subgroups` adds the
    remainder N - 2KL to the last group and splits it as evenly as
    possible, so with no remainder this is K*L^2 = N*L/2.  Both formulas
    read the first transcript's assignment.  Each dropped client must cost
    exactly one recovery message per surviving member of its complementary
    subgroup in its own round.  `failure` names the first round that
    misses either count.  `transcripts` is folded over once, one at a time,
    through an `OverheadAudit`, so a stream such as
    `transcript.read_transcripts` is never held whole.
    """
    audit = OverheadAudit()
    for t in transcripts:
        audit.add(t)
    return audit.report()


@dataclass(frozen=True)
class LeakReport:
    """What pairwise symbol differences inside one message give away.

    Under a scalar mask the common rotation cancels in every difference,
    so the aggregator reads plaintext digit differences straight off the
    grid.  Per-symbol masks leave the differences uniform.
    """

    mask_mode: str
    num_messages: int
    num_differences: int
    on_grid_fraction: float
    digit_differences_recovered: bool
    recovered_sample: tuple[int, ...]
    uniformity: UniformityReport | None


def difference_leak_probe(symbols, mask_mode: str, cfg: QuantizationConfig) -> LeakReport:
    """Probe consecutive-symbol differences of uplink messages for leakage.

    `symbols` is a (messages, d) matrix of masked symbols, one row per
    message, as `RoundTranscript.symbols` holds them; `mask_mode` is the
    mode they were masked in.
    """
    sym = turns.as_vector(symbols)
    if sym.ndim != 2 or not len(sym):
        raise ValueError("need a (messages, d) matrix of at least one message")
    flat = turns.sub(sym[:, 1:], sym[:, :-1]).reshape(-1)
    if not flat.size:
        return LeakReport(mask_mode=mask_mode, num_messages=len(sym),
                          num_differences=0, on_grid_fraction=0.0,
                          digit_differences_recovered=False,
                          recovered_sample=(), uniformity=None)
    on_grid = int(np.sum(flat % cfg.step == 0))
    all_on_grid = on_grid == flat.size
    # A difference is below 2**32, so its quotient by the step is below M.
    sample = tuple(int(d) for d in flat[:8] // cfg.step) if all_on_grid else ()
    uniformity = None
    if not all_on_grid:
        try:
            uniformity = chi_square_uniformity(flat, bins=16)
        except UnderpoweredTestError:
            uniformity = None
    return LeakReport(
        mask_mode=mask_mode, num_messages=len(sym), num_differences=int(flat.size),
        on_grid_fraction=on_grid / flat.size,
        digit_differences_recovered=all_on_grid,
        recovered_sample=sample, uniformity=uniformity,
    )
