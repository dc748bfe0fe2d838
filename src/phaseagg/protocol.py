"""Aggregation round orchestration: messages, decoding, recovery.

Clients are integers 0..S-1.  A `masking.GroupAssignment` splits them into
mask-exchange groups, each with a plus side and a minus side; every client
rotates its symbols by the summed channel phases to the opposite side,
plus side adding, minus side subtracting.  Summing all received messages
cancels every mask pairwise and leaves the exact digit sum.

Two protocol versions exist on the wire, named in `config` (`ALG1`,
`ALG2`):

* ``alg1`` - group mask only.  Exact and minimal, but once a client is
  presumed dropped and its mask reconstructed, a late message from it can
  be unmasked by the aggregator.
* ``alg2`` - each message additionally carries a private uniform phase
  known only to its sender.  Recovery then needs mask shares for dropped
  clients and private phases for survivors, never both for one client, so
  late messages stay protected.

A round is one matrix sum, split at the wire.  `run_round` is the client
half, then hands what crosses the wire to the server half,
`transcript.aggregate`.  The client half checks the drop set and lists
the senders once, modulates every sender's digits in one (senders, d)
uint32 matrix and adds each sender's offset to its row in place: its
private phase (alg2) plus its signed group mask, both read by client id
from the round's `masking.RoundPhases` row with one `take` each.  The
offsets are a (senders, 1) column in scalar mode and a (senders, d)
array per symbol, so broadcasting serves both.  A training run hands
each round its row of a `masking.phase_window`; a direct call derives
its own (`masking.round_phases`).  Below `run_round` the mask mode is
only the row's phase `length` (None for a scalar, d per symbol);
`per_symbol` is set only by its callers.  `client_message` builds one
client's message alone: the reference the rows are tested against.

The clients then answer the server's recovery queries, one reveal record
per query, each naming the clients it asked and holding their answers as
one read-only uint32 array:
``{"kind": "mask-shares", "dropped": i, "revealers": [...], "phases": ...}``
per dropped or delayed client, then ``{"kind": "private-phases",
"clients": [...], "phases": ...}`` once under alg2, row r answered by
the r-th listed client.  A dropped client's shares are read from the
row's pairs, never its masks, at the positions `GroupAssignment.pairs_of`
computes: one `take` for all of them.

The server half reads only the `transcript.RoundTranscript` view: the
layout, the senders, the drop set, the delayed client, the symbols and
the records.  Its correction, `dropout_correction`, is ``+ sum(masks of
dropped plus-side) - sum(masks of dropped minus-side) - sum(private
phases of survivors)``, each mask the sum of its record's shares, with
dropped-to-dropped channel terms excluded; they cancel pairwise by
reciprocity, which the test suite checks exhaustively.
`ps_aggregate_and_decode` sums, corrects and decodes.

`run_iteration` composes one training round from `fl`'s steps around
`run_round`: `fl.client_digits` before it and `fl.sgd_update` after.
`fl.training_rounds`, its one caller, hands it theta, the stacked
datasets, the layout, the round's phase row and the round's residual.
It is the one import of a higher layer, and `fl` calls it through this
module.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import fl
from .channel import ChannelMatrix, sample_round_channel
from .codec import FecConfig, QuantizationConfig, codec_metrics, modulate
from .config import ALG1, ALG2, ScenarioConfig, check_version
from .errors import ShapeError, UnrecoverableRoundError
from .masking import (
    PER_SYMBOL_MASKS,
    PLUS,
    SCALAR_MASKS,
    GroupAssignment,
    MaskedSymbols,
    RoundPhases,
    apply_mask,
    check_pair_row,
    # perfbench builds its layouts as `protocol.assign_*`.
    assign_subgroups,  # noqa: F401
    assign_two_groups,  # noqa: F401
    compute_group_mask,
    round_phases,
    sample_private_phase,
)
# perfbench traces the server half's correction and decode as `protocol.*`.
from .transcript import (ClientMessage, RoundTranscript, aggregate,  # noqa: F401
                         dropout_correction, ps_aggregate_and_decode)


def client_message(i: int, digits, assignment: GroupAssignment,
                   channel: ChannelMatrix, version: str, seed: int,
                   cfg: QuantizationConfig, *,
                   length: int | None = None) -> ClientMessage:
    """Build client i's message alone: modulate, add private phase (alg2), rotate.

    The group-mask rotation direction follows the client's side tag: plus
    side adds its mask, minus side subtracts it.  The private phase is
    always added.  Masks are scalar, or with `length` (the symbol count)
    per symbol.  `run_round` builds every sender's message at once; this
    per-client definition is the reference its rows are tested against.
    A `length` other than the digit count raises ShapeError.
    """
    check_version(version)
    if not (0 <= i < assignment.num_clients):
        raise IndexError(f"client {i} is not covered by the assignment")
    t = channel.iteration
    symbols = modulate(digits, cfg)
    if length is not None and symbols.shape != (length,):
        raise ShapeError(f"client {i}'s {symbols.size} symbols cannot take masks "
                         f"of length {length}")
    if version == ALG2:
        symbols = apply_mask(symbols, sample_private_phase(i, t, seed, length=length), PLUS)
    mask = compute_group_mask(i, assignment, channel, length=length)
    return ClientMessage(owner=i, masked=MaskedSymbols(
        symbols=apply_mask(symbols, mask, assignment.tag_of[i])))


def _answers(absent: frozenset[int], senders: list[int], assignment: GroupAssignment,
             pairs: np.ndarray, private: np.ndarray | None) -> tuple:
    """The clients' answers to the server's recovery queries, as reveal records.

    One `mask-shares` record per absent client, in increasing order, holds
    its surviving counterparts' shares, each record's phases a view of one
    `take` of the round's `pairs`.  Under alg2 a `private-phases` record
    of the `senders`' private phases follows.  Nothing is signed or summed.
    """
    reveals, positions = [], []
    for i in sorted(absent):
        _, others, places = assignment.pairs_of(i)
        revealers = []
        for j, k in zip(others, places):
            if j not in absent:
                revealers.append(j)
                positions.append(k)
        reveals.append({"kind": "mask-shares", "dropped": i, "revealers": revealers})
    # `take` copies; each record's phases view their stretch of its rows.
    shares = pairs.take(positions, axis=0)
    shares.setflags(write=False)
    start = 0
    for record in reveals:
        record["phases"] = shares[start:start + len(record["revealers"])]
        start += len(record["revealers"])
    if private is not None:
        private.setflags(write=False)
        reveals.append({"kind": "private-phases", "clients": senders, "phases": private})
    return tuple(reveals)


def run_round(digits_by_client, assignment: GroupAssignment,
              channel: ChannelMatrix, cfg: QuantizationConfig, *,
              version: str = ALG1, seed: int, dropped: Iterable[int] = (),
              delayed: int | None = None, per_symbol: bool = False,
              naive_remedy: bool = False,
              fec: FecConfig | None = None,
              phases: RoundPhases | None = None) -> RoundTranscript:
    """One full aggregation round over prepared digit vectors.

    `digits_by_client` holds one digit vector per client: a (clients, d)
    matrix or a sequence of rows.  The senders' rows are modulated into one
    (senders, d) symbol matrix, and each sender's offset (its private
    phase plus its group mask, signed by its side) is added to its row in
    place: an (senders, 1) column in scalar mode, an (senders, d) array
    per symbol.  The transcript keeps the matrix; its `messages` are views
    of the rows, built when first read.

    Dropped clients estimate phases but never transmit.  A delayed client
    is treated as dropped at aggregation time; under alg2 its late message
    is logged and discarded, while `naive_remedy` (the deliberately unsafe
    alg1 recovery used by the attack oracle) leaves it for the caller.

    Every phase comes from `phases`, this round's `masking.RoundPhases`
    row: the senders' masks and private phases are read from it by client
    id, each with one `take`, and the clients' answers to the server's
    recovery queries from its pairs and those private phases.  Without a
    row the round derives its own (`masking.round_phases`): the pairs from
    `channel` and the private phases from `seed`.  A row from another
    round, of the other mask mode or of another layout is refused with
    ValueError.

    The drop set is range-checked first, under every version: an id
    outside the assignment raises IndexError.  The senders are listed
    once.  That is the client half.  The symbols and the answers then go
    to the server half, `transcript.aggregate`, which reads nothing else
    and completes the transcript.
    """
    s = assignment.num_clients
    if len(digits_by_client) != s:
        raise ShapeError(
            f"need digits for all {s} clients, got {len(digits_by_client)}"
        )
    digits = digits_by_client
    if isinstance(digits, np.ndarray) and digits.ndim == 2:
        dimension = digits.shape[1]
    else:
        digits = [np.atleast_1d(d) for d in digits]
        dims = {len(r) for r in digits}
        if len(dims) != 1:
            raise ShapeError(f"clients disagree on dimension: {sorted(dims)}")
        (dimension,) = dims

    dropped = frozenset(map(int, dropped))
    if dropped and (min(dropped) < 0 or max(dropped) >= s):
        bad = min(i for i in dropped if not 0 <= i < s)
        raise IndexError(f"dropped client {bad} is not in the assignment")
    if delayed is not None:
        if delayed in dropped:
            raise ValueError(f"client {delayed} cannot be both dropped and delayed")
        if not (0 <= delayed < s):
            raise IndexError(f"delayed client {delayed} out of range")
    absent = dropped | {delayed} if delayed is not None else dropped
    check_version(version)
    length = dimension if per_symbol else None
    t = channel.iteration

    # Phase estimation happens at round start for every cross pair, before
    # anyone can drop: each cross pair's phase (or per-symbol stream) is
    # derived once, for both endpoints' masks and the correction alike.
    if phases is None:
        phases = round_phases(assignment, channel, seed, private=version == ALG2,
                              length=length)
    elif (phases.iteration, phases.length) != (t, length):
        raise ValueError(f"phases of round {phases.iteration}, length {phases.length} "
                         f"cannot serve round {t}, length {length}")
    elif version == ALG2 and phases.private is None:
        raise ValueError("an alg2 round's derived phases must hold private phases")
    else:
        check_pair_row(assignment, phases.pairs)
        if len(phases.masks) != s:
            raise ValueError(f"need {s} clients' masks, got shape {phases.masks.shape}")

    senders = [i for i in range(s) if i not in absent]
    # `take` copies, so the row's masks stay as they are.  It is several
    # times faster than fancy indexing, and faster still given the ids as
    # one array, made once.
    index = np.array(senders, dtype=np.intp)
    offsets = phases.masks.reshape(s, -1).take(index, axis=0)
    if absent:
        digits = (digits.take(index, axis=0) if isinstance(digits, np.ndarray)
                  else [digits[i] for i in senders])
    # With no sender left, modulate gets an empty sequence and returns shape (0,).
    symbols = modulate(digits, cfg).reshape(len(senders), dimension)
    private = None
    if version == ALG2:
        private = phases.private.take(index, axis=0)
        offsets += private.reshape(offsets.shape)
    symbols += offsets
    symbols.setflags(write=False)
    if absent and version == ALG1 and not naive_remedy:
        raise UnrecoverableRoundError(
            "dropouts under the group-mask-only protocol cannot be "
            "recovered without exposing masks; use version 'alg2'"
        )

    # What crosses the wire: the symbols, and the answers to the server's
    # queries.  The server half reads nothing else.
    view = RoundTranscript(
        iteration=t,
        assignment=assignment,
        symbols=symbols,
        senders=tuple(senders),
        version=version,
        mask_mode=PER_SYMBOL_MASKS if per_symbol else SCALAR_MASKS,
        dropped=tuple(sorted(dropped)),
        delayed=delayed,
        # Under alg2 a late message is discarded; the naive remedy leaves it
        # to the caller.
        delayed_discarded=None if delayed is None else version == ALG2,
        reveals=_answers(absent, senders, assignment, phases.pairs, private),
        # The channel is noiseless, so the FEC code only sets the reported bit
        # counts; tests/test_codec.py checks that it is a lossless inverse pair.
        codec_metrics=codec_metrics(cfg, fec or FecConfig(scheme="none"), dimension),
    )
    view.aggregate, view.decoded_mean, view.counters = aggregate(view, cfg)
    return view


def run_iteration(theta: np.ndarray, config: ScenarioConfig, datasets: fl.ClientDatasets,
                  assignment: GroupAssignment, phases: RoundPhases, residual: np.ndarray):
    """One federated round at parameters `theta`: gradients, masked aggregation, SGD step.

    The round is `phases.iteration`, and `phases` is its row of a
    `masking.phase_window`.  Every client's digits come from one batched
    gradient over `datasets`, as `fl.make_synthetic_task` stacks them, at
    `residual`, the round's `fl.client_residuals(theta, datasets)` that
    the loss has read too.  The decoded mean takes one step at the
    config's learning rate.  Returns (transcript, updated theta).
    """
    cfg = config.quantization()
    t = phases.iteration
    transcript = run_round(
        fl.client_digits(theta, datasets, cfg, residual=residual), assignment,
        sample_round_channel(config.clients, t, config.seed), cfg,
        version=config.protocol_version,
        seed=config.seed,
        dropped=config.dropouts_for_round(t),
        delayed=config.delayed_client,
        per_symbol=config.per_symbol_masks,
        fec=config.fec_config(),
        phases=phases,
    )
    return transcript, fl.sgd_update(theta, transcript.decoded_mean, config.learning_rate)
