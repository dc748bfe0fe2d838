"""Distributed SGD on a synthetic least-squares task.

Each client holds a private dataset and computes the mean per-sample
gradient of f(theta; x, y) = (x.theta - y)^2 / 2 at the current global
parameters.  The server averages the (quantized) client gradients and
takes one gradient step per round.  The task is linear regression with a
known generating parameter so convergence can be asserted exactly.

Every client's data is stacked once, as a `ClientDatasets` of features
(S, n, d) and targets (S, n).  Each round computes one batched residual
(`client_residuals`, which checks theta's shape), and the round's other
batched steps take it as their input: the loss (`sample_loss`) and,
through one batched least-squares gradient (`client_gradients`) and one
`quantize` call, every client's digits (`client_digits`).
`compute_gradient` and `quantized_digits` stay the per-client definitions
the batch is tested against, bit for bit.

`training_rounds` is the one training loop, through the masked
aggregation protocol (`protocol.run_iteration`).  It is a generator: it
yields each round's transcript as the round finishes and keeps none,
while it fills a `TrainingHistory` with the round's metrics row, so a
caller can write each round's line before the next round runs.
`run_training` drains it and returns the history.  With
`compare_baseline`, each round also takes the insecure baseline's step
(`baseline_step`) from the same theta, summing in the clear the digits
`run_iteration` sent; no gradient is computed twice.  Masking is
information-lossless, so the two updates are bit-identical; the history
records the first round whose updates differ.  The loop's only state is
theta: the round is the loop counter and the learning rate the config's.

Each round hands its row of keyed phases, `next` of `masking.phase_rows`,
straight to `protocol.run_iteration`, so the loop holds no phases
between rounds.  A round whose loss or theta norm is not finite, or whose
update is not, is refused with `DivergenceError` naming the round.  The
arithmetic checked for finiteness runs under `np.errstate`, so an
overflow is the refusal alone, with no warning before it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .codec import QuantizationConfig, dequantize_mean, quantize
from .config import ALG2, ScenarioConfig
from .errors import DivergenceError, ShapeError
from .masking import phase_rows
from .transcript import RoundTranscript


@dataclass(frozen=True)
class ClientDataset:
    """One client's private samples: features (n, d) and targets (n,)."""

    features: np.ndarray
    targets: np.ndarray
    owner: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ShapeError("client dataset must hold at least one sample")
        if self.targets.shape != (self.features.shape[0],):
            raise ShapeError("features and targets disagree on sample count")

    @property
    def num_samples(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True, eq=False)
class ClientDatasets(Sequence):
    """Every client's samples stacked: features (S, n, d), targets (S, n).

    Item i is client i's `ClientDataset`, whose arrays are views into the
    stack, so per-client code and the batched gradient read the same data.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 3 or self.features.shape[1] == 0:
            raise ShapeError("stacked features must be (clients, samples, dimension)")
        if self.targets.shape != self.features.shape[:2]:
            raise ShapeError("features and targets disagree on client or sample count")

    @cached_property
    def _views(self) -> tuple[ClientDataset, ...]:
        return tuple(ClientDataset(features=x, targets=y, owner=s)
                     for s, (x, y) in enumerate(zip(self.features, self.targets)))

    def __getitem__(self, i):
        return self._views[i]

    def __len__(self) -> int:
        return self.features.shape[0]


def make_synthetic_task(num_clients: int, dimension: int,
                        samples_per_client: int, seed: int,
                        noise: float = 0.0):
    """Gaussian features, targets from a hidden parameter vector.

    Returns (datasets, true_theta), the datasets stacked once as a
    `ClientDatasets`.  With noise=0 the generating parameter is the exact
    optimum, where every gradient vanishes.
    """
    gen = rng.keyed_generator(seed, rng.DATA_DOMAIN)
    true_theta = gen.standard_normal(dimension)
    features = np.empty((num_clients, samples_per_client, dimension))
    targets = np.empty((num_clients, samples_per_client))
    for s in range(num_clients):
        features[s] = gen.standard_normal((samples_per_client, dimension))
        targets[s] = features[s] @ true_theta
        if noise > 0:
            targets[s] += noise * gen.standard_normal(samples_per_client)
    return ClientDatasets(features=features, targets=targets), true_theta


def client_residuals(theta: np.ndarray, datasets: ClientDatasets) -> np.ndarray:
    """Every client's residuals x.theta - y at once, (S, n).

    The one residual a round computes: `sample_loss` and `client_digits`
    both take it.  A theta of another dimension raises ShapeError.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (datasets.features.shape[2],):
        raise ShapeError(
            f"theta has shape {theta.shape}, features need ({datasets.features.shape[2]},)"
        )
    return datasets.features @ theta - datasets.targets


def client_gradients(residual: np.ndarray, datasets: ClientDatasets) -> np.ndarray:
    """Every client's mean least-squares gradient at `residual`, (S, d).

    `residual` is `client_residuals(theta, datasets)`.  Row i equals
    `compute_gradient(theta, datasets[i])` bit for bit: each client's
    products run through the same matrix-vector kernel.
    """
    x = datasets.features
    return (x.transpose(0, 2, 1) @ residual[..., None])[..., 0] / x.shape[1]


def client_digits(residual: np.ndarray, datasets: ClientDatasets,
                  cfg: QuantizationConfig) -> np.ndarray:
    """Every client's digit vector at `residual`, (S, d): its gradient quantized."""
    return quantize(client_gradients(residual, datasets), cfg)


def compute_gradient(theta: np.ndarray, dataset: ClientDataset) -> np.ndarray:
    """Mean least-squares gradient over the client's samples."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (dataset.features.shape[1],):
        raise ShapeError(
            f"theta has shape {theta.shape}, features need ({dataset.features.shape[1]},)"
        )
    residual = dataset.features @ theta - dataset.targets
    return dataset.features.T @ residual / dataset.num_samples


def sample_loss(residual: np.ndarray) -> float:
    """Mean of (x.theta - y)^2 / 2 over every sample of every client.

    `residual` is the round's `client_residuals(theta, datasets)`.  Each
    client's squared residual norm runs through the dot kernel of
    `residual @ residual`, and the halves are added strictly left to right
    in client order, so the result equals a per-client loop bit for bit.
    (Built-in `sum` of floats is compensated from Python 3.12 on, which
    could move the last bit.)
    """
    halves = (residual[:, None, :] @ residual[:, :, None]).ravel() / 2.0
    total = 0.0
    for half in halves.tolist():
        total += half
    return total / residual.size


@np.errstate(over="ignore", invalid="ignore")
def sgd_update(theta: np.ndarray, mean_gradient: np.ndarray,
               eta: float, t: int) -> np.ndarray:
    """Round t's update: theta minus eta times the averaged gradient.

    DivergenceError, naming round t, unless every parameter is finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    g = np.asarray(mean_gradient, dtype=np.float64)
    if theta.shape != g.shape:
        raise ShapeError(f"theta {theta.shape} and gradient {g.shape} disagree")
    updated = theta - eta * g
    if np.count_nonzero(np.isfinite(updated)) < updated.size:
        raise DivergenceError(f"round {t} diverged: its update produced non-finite "
                              "parameters")
    return updated


def quantized_digits(theta: np.ndarray, dataset: ClientDataset,
                     cfg: QuantizationConfig) -> np.ndarray:
    """The digit vector a client would transmit at the current parameters."""
    return quantize(compute_gradient(theta, dataset), cfg)


@dataclass
class HistoryRow:
    """Per-round metrics; loss and norms refer to the pre-update parameters."""

    round: int
    loss: float
    theta_norm: float
    phase_estimations: int
    uplink: int
    recoveries: int


@dataclass
class TrainingHistory:
    """What a run keeps of its rounds: one metrics row each, never their transcripts."""

    rows: list[HistoryRow] = field(default_factory=list)
    # With compare_baseline, the first round whose update differs from the baseline's.
    diverged: int | None = None

    @property
    def initial_loss(self) -> float:
        return self.rows[0].loss

    @property
    def final_loss(self) -> float:
        return self.rows[-1].loss


def baseline_step(theta: np.ndarray, config: ScenarioConfig, digits: np.ndarray,
                  t: int) -> np.ndarray:
    """The plaintext baseline's update of round t at `theta`: digits summed in the clear.

    `digits` are every client's digits that round, as `protocol.run_iteration`
    returns them.  The senders are listed from the config's drop set and
    delayed client, not read from the round, so the check covers
    `run_round`'s senders too.
    """
    absent = {*config.dropouts_for_round(t), config.delayed_client}
    senders = [i for i in range(config.clients) if i not in absent]
    cfg = config.quantization()
    mean = dequantize_mean(np.sum(digits[senders], axis=0, dtype=np.int64), len(senders), cfg)
    return sgd_update(theta, mean, config.learning_rate, t)


@np.errstate(over="ignore", invalid="ignore")
def _round_start(t: int, theta: np.ndarray, datasets: ClientDatasets):
    """Round t's residual, loss and theta norm; DivergenceError unless both are finite."""
    residual = client_residuals(theta, datasets)
    loss = sample_loss(residual)
    norm = math.sqrt(theta.dot(theta))  # np.linalg.norm's arithmetic, bit for bit
    if not (math.isfinite(loss) and math.isfinite(norm)):
        raise DivergenceError(f"round {t} diverged: its loss is {loss} and its theta "
                              f"norm {norm}; both must be finite")
    return residual, loss, norm


def training_rounds(config: ScenarioConfig,
                    history: TrainingHistory) -> Iterator[RoundTranscript]:
    """Run the DSGD loop, yielding each round's `RoundTranscript` as the round finishes.

    Starts at theta = 0, the loop's only state besides its stream of
    phase rows (`masking.phase_rows`), one taken a round.  Each round
    computes its residual once (`client_residuals`) and hands it to
    `sample_loss` and to `protocol.run_iteration`, which returns the
    digits it sent; with `compare_baseline` and until a round differs,
    `baseline_step` sums those digits at the same theta.  The round's
    metrics row is appended to `history.rows`, and the first differing
    round set as `history.diverged`, before its transcript is yielded;
    the loop keeps no transcript.  Stops after config.rounds, or earlier once loss falls
    below config.loss_threshold.  A round whose loss or theta norm is not
    finite raises DivergenceError before it runs.  A round that raises
    ends the stream, with every round before it already yielded.
    """
    from . import protocol  # imported here: protocol composes on top of fl

    datasets, _ = make_synthetic_task(
        config.clients, config.dimension, config.samples_per_client, config.seed
    )
    assignment = config.build_assignment()
    theta = np.zeros(config.dimension)
    rows = phase_rows(assignment, config.seed, 0, config.rounds,
                      private=config.protocol_version == ALG2, length=config.phase_length)

    for t in range(config.rounds):
        residual, loss, norm = _round_start(t, theta, datasets)
        # The row goes straight into the round, so no name here holds it after.
        transcript, new_theta, digits = protocol.run_iteration(
            theta, config, datasets, assignment, next(rows), residual
        )
        if config.compare_baseline and history.diverged is None:
            baseline = baseline_step(theta, config, digits, t)
            history.diverged = None if np.array_equal(baseline, new_theta) else t
        counters = transcript.counters
        history.rows.append(HistoryRow(
            round=t, loss=loss, theta_norm=norm,
            phase_estimations=counters["phase_estimations"],
            uplink=counters["uplink_messages"],
            recoveries=counters["recovery_messages"],
        ))
        yield transcript
        theta = new_theta
        if config.loss_threshold is not None and loss < config.loss_threshold:
            break


def run_training(config: ScenarioConfig, mode: str = "secure", /) -> TrainingHistory:
    """Run the full DSGD loop (`training_rounds`) and return its history.

    `mode` is only "secure", still accepted from callers that name it.
    """
    if mode != "secure":
        raise ValueError(f"unknown training mode {mode!r}")
    history = TrainingHistory()
    for _ in training_rounds(config, history):
        pass
    return history
