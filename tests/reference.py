"""Test-only reference models of the package's training loop.

`plaintext_training` is the insecure baseline as a loop of its own: no
masks, no transcripts and no `protocol`.  Each round computes its own
digits from its own residual, sums the senders' digits in the clear, the
senders being the clients outside the config's drop set and its delayed
client, and takes one SGD step.  `fl.run_training` makes the same step
inside its loop with `compare_baseline` (`fl.baseline_step`), but from
the digits `protocol.run_iteration` sent; this loop derives its digits
apart from the secure run, so it is the independent run the tests hold
the secure trajectory against.

`secure_training` runs `fl.run_training` and records the parameters each
round returns (`protocol.run_iteration`'s second value), which the
history does not keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from phaseagg import fl, protocol
from phaseagg.codec import dequantize_mean


@dataclass
class PlaintextHistory:
    """The baseline's rows and its parameters after each round."""

    rows: list[fl.HistoryRow] = field(default_factory=list)
    thetas: list[np.ndarray] = field(default_factory=list)


def plaintext_training(config) -> PlaintextHistory:
    """The plaintext baseline's run, stopping where `fl.run_training` does."""
    datasets, _ = fl.make_synthetic_task(
        config.clients, config.dimension, config.samples_per_client, config.seed
    )
    cfg = config.quantization()
    theta = np.zeros(config.dimension)
    history = PlaintextHistory()
    for t in range(config.rounds):
        residual = fl.client_residuals(theta, datasets)
        loss = fl.sample_loss(residual)
        dropped = set(config.dropouts_for_round(t))
        if config.delayed_client is not None:
            dropped.add(config.delayed_client)
        senders = [i for i in range(config.clients) if i not in dropped]
        digits = fl.client_digits(residual, datasets, cfg)
        digit_sum = np.sum(digits[senders], axis=0, dtype=np.int64)
        mean = dequantize_mean(digit_sum, len(senders), cfg)
        new_theta = fl.sgd_update(theta, mean, config.learning_rate, t)
        history.rows.append(fl.HistoryRow(round=t, loss=loss,
                                          theta_norm=float(np.linalg.norm(theta)),
                                          phase_estimations=0, uplink=len(senders),
                                          recoveries=0))
        history.thetas.append(new_theta)
        theta = new_theta
        if config.loss_threshold is not None and loss < config.loss_threshold:
            break
    return history


def secure_training(config) -> tuple[fl.TrainingHistory, list[np.ndarray]]:
    """`fl.run_training(config)` and the parameters after each of its rounds."""
    thetas = []
    original = protocol.run_iteration

    def recorded(*args):
        transcript, theta, digits = original(*args)
        thetas.append(theta)
        return transcript, theta, digits

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "run_iteration", recorded)
        history = fl.run_training(config)
    return history, thetas
