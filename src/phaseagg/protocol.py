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

A round is one matrix sum.  `run_round` checks the drop set and lists
the senders once, modulates every sender's digits in one (senders, d)
uint32 matrix and adds each sender's offset to its row in place: its
private phase (alg2) plus its group mask, negated on the minus side,
which it reads from the round's row with one `take`.  The offsets are an
(senders, 1) column in scalar mode and an (senders, d) array per symbol,
so broadcasting serves both.  Neither the masks nor the recovery check
nor the decode loops over groups: a scalar round takes a fixed number of
array calls whatever its group count.  The aggregate is the matrix's
column sum plus the correction.  Every phase and mask of a round comes
from one `masking.RoundPhases` row: a training run hands each round its
row of a `masking.phase_window`, and a direct call derives its own
(`masking.round_phases`).  Below `run_round`, the mask mode is only the
`length` of the row's phases (None for a scalar, d per symbol), and every
phase, mask, symbol row and correction is an int or an integer array;
`per_symbol` is set only by `run_round`'s callers.  `client_message`
builds one client's message on its own, taking the same `length`; it is
the reference the rows are tested against.  The round returns a
`transcript.RoundTranscript`, which keeps the read-only matrix and the
sender ids; the transcript module holds the format and the
transcripts.jsonl file: its line writer and reader, and the file's writer
(`write_transcripts`) and streaming reader (`read_transcripts`).

The dropout correction implemented here is
``+ sum(masks of dropped plus-side) - sum(masks of dropped minus-side)
- sum(private phases of survivors)`` with dropped-to-dropped channel terms
excluded; they cancel pairwise by reciprocity, which the test suite checks
exhaustively.  Every dropped client's shares are read from the round's
row of cross-pair values, never from its masks, at the positions its
layout caches (`GroupAssignment.pair_positions`): one `take` for all of
them, signed and summed by one product.  The recovery check looks only
at the sides that hold a dropped client.  `run_round` hands the
correction the drop set and survivors it has checked and listed.
`dropout_correction` returns the correction and its reveal records, and
`ps_aggregate_and_decode` the decoded digit sums and their mean;
`run_round` counts the recovery messages and private-phase reveals from
the records.
The reveal log holds one record per query, each naming the clients it
asked and holding their answers as one read-only uint32 array:
``{"kind": "mask-shares", "dropped": i, "revealers": [...], "phases": ...}``
per dropped client, then ``{"kind": "private-phases", "clients": [...],
"phases": ...}`` once under alg2.  The phases are (k,) scalars or (k, d)
per-symbol streams, row r answered by the r-th listed client.

`run_iteration` composes one training round from `fl`'s steps around
`run_round`: `fl.client_digits` before it and `fl.sgd_update` after.  It
derives nothing: `fl.training_rounds`, its one caller, hands it theta, the
stacked datasets, the layout, the round's phase row and the round's
residual, which the loss has read too, and it reads the round from that
row and the learning rate and codec from the config, which builds its
`QuantizationConfig` and `FecConfig` once.  `fl.baseline_step` runs in
the training loop once it returns.  `run_iteration` is the one import
of a higher layer, and `fl` calls it through this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from . import fl
from .channel import ChannelMatrix, sample_round_channel
from .codec import (
    FecConfig,
    QuantizationConfig,
    codec_metrics,
    decode_sum,
    dequantize_mean,
    modulate,
)
from .config import ALG1, ALG2, ScenarioConfig, check_version
from .errors import RevealSafetyError, ShapeError, UnrecoverableRoundError
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
from .transcript import ClientMessage, RoundTranscript

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


def ps_aggregate_and_decode(symbols: np.ndarray, correction, num_contributors: int,
                            cfg: QuantizationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sum received phases, apply the correction, decode: (digit sums, mean).

    `symbols` is a round's (senders, d) uint32 symbol matrix, and
    `correction` an int in [0, 2**32) or a uint32 array, as
    `dropout_correction` returns it.  With every mask cancelled the
    per-element phase sum is an exact grid multiple; anything else raises
    ResidualMaskError.  The mean averages the exact integer digit sums over
    `num_contributors`.
    """
    if not len(symbols):
        raise UnrecoverableRoundError("no messages arrived; nothing to decode")
    agg = symbols.sum(axis=0, dtype=np.uint32)
    agg += correction
    sums = decode_sum(agg, cfg)
    return sums, dequantize_mean(sums, num_contributors, cfg)


def _drop_set(ids: Iterable[int], assignment: GroupAssignment) -> frozenset[int]:
    """`ids` as a frozenset of ints, or IndexError naming the first not in `assignment`."""
    ids = frozenset(map(int, ids))
    if ids and (min(ids) < 0 or max(ids) >= assignment.num_clients):
        bad = min(i for i in ids if not 0 <= i < assignment.num_clients)
        raise IndexError(f"dropped client {bad} is not in the assignment")
    return ids


def _check_recovery_feasible(dropped: frozenset[int], survivors: Sequence[int],
                             assignment: GroupAssignment) -> None:
    """Raise UnrecoverableRoundError when recovery cannot proceed.

    Every side of every group must keep at least one survivor: a dropped
    client with a fully-dropped complementary side has nobody left to
    reveal its mask shares, and a surviving client with a fully-dropped
    complementary side would have its whole mask exposed by those same
    reveals on top of its private phase.
    """
    if not survivors:
        raise UnrecoverableRoundError("every client dropped out")
    # Only a side holding a dropped client can have lost them all.  The
    # error names the first such side in (group, tag) order, '+' < '-'.
    for g, tag in sorted({(assignment.group_of[i], assignment.tag_of[i]) for i in dropped}):
        if dropped.issuperset(assignment.side(g, tag)):
            raise UnrecoverableRoundError(
                f"the {tag!r} side of group {g} lost all its clients; "
                "masks touching it can be neither reconstructed nor kept private"
            )


def _audit_reveal_safety(reveals: Sequence[Mapping],
                         assignment: GroupAssignment) -> None:
    """Check no client has both its private phase and its full mask revealed.

    `reveals` holds the round's reveal records, one per query.  The share
    phi(dropped, revealer) is a component of both clients' masks.  A
    client dropped in no record is touched by at most one share per
    record, so only one whose mask has no more shares than there are
    records is checked share by share, beside every record's dropped client.
    """
    private: set[int] = set()
    shares = []
    for r in reveals:
        if r["kind"] == "private-phases":
            private.update(r["clients"])
        else:
            shares.append(r)
    suspects = {r["dropped"] for r in shares}
    suspects.update(j for r in shares for j in r["revealers"]
                    if len(assignment.complementary_set(j)) <= len(shares))
    for client in sorted(private.intersection(suspects)):
        exposed = set()
        for r in shares:
            if r["dropped"] == client:
                exposed.update(r["revealers"])
            elif client in r["revealers"]:
                exposed.add(r["dropped"])
        comp = assignment.complementary_set(client)
        if comp and exposed.issuperset(comp):
            raise RevealSafetyError(
                f"reveal-safety audit failed: client {client}'s private phase "
                "and every share of its mask were both revealed"
            )


# A minus side's shares enter the correction's signed sum with this sign:
# -1 mod 2**32.
_MINUS_ONE = 2**32 - 1


def dropout_correction(dropped: Iterable[int], assignment: GroupAssignment,
                       pairs: np.ndarray, private_phases: np.ndarray | None, *,
                       survivors: Sequence[int] | None = None) -> tuple[int | np.ndarray, tuple]:
    """(correction, reveals): what the aggregator adds so survivors' sums decode exactly.

    Reconstructed masks of dropped plus-side clients are added and
    minus-side ones subtracted; with `private_phases` given (alg2) the
    survivors' private phases are subtracted as well.  `private_phases` is
    an array of their phases, one row per survivor in increasing client
    order.  `pairs` is the round's row of cross-pair values
    (`RoundPhases.pairs`); a dropped client's shares are read from it at the
    positions `GroupAssignment.pair_positions` caches, and its phase width
    sets the correction's: an int for scalar phases, a (length,) array for
    per-symbol streams.  Every dropped client's shares are gathered with
    one `take` and signed and summed with one product.  The reveals are a
    tuple of records, one per query: the revealers of one dropped client's
    shares, or the survivors whose private phases are asked, with the
    revealed phases as one read-only uint32 array.  The never-both rule is
    audited on those records.

    Called on its own, the function range-checks `dropped` (IndexError
    for an id outside the assignment), checks the row and lists the
    survivors.  `run_round` has done all three and passes its `survivors`,
    the clients not in `dropped` in increasing order, with `dropped` as
    the frozenset it checked; neither is derived again.
    """
    if survivors is None:
        dropped = _drop_set(dropped, assignment)
        check_pair_row(assignment, pairs)
        survivors = [i for i in range(assignment.num_clients) if i not in dropped]
    _check_recovery_feasible(dropped, survivors, assignment)

    reveals, positions, signs = [], [], []
    for i in sorted(dropped):
        revealers = []
        for j, k in zip(assignment.complementary_set(i), assignment.pair_positions[i].tolist()):
            if j not in dropped:
                revealers.append(j)
                positions.append(k)
        signs += [1 if assignment.tag_of[i] == PLUS else _MINUS_ONE] * len(revealers)
        reveals.append({"kind": "mask-shares", "dropped": i, "revealers": revealers})
    # `take` copies; each record's phases view their stretch of its rows.
    shares = pairs.take(positions, axis=0)
    shares.setflags(write=False)
    start = 0
    for record in reveals:
        record["phases"] = shares[start:start + len(record["revealers"])]
        start += len(record["revealers"])
    # () makes a scalar total.
    total = np.matmul(np.array(signs, dtype=np.uint32), shares,
                      out=np.empty(pairs.shape[1:], dtype=np.uint32))

    if private_phases is not None:
        if len(private_phases) != len(survivors):
            raise ValueError(f"need {len(survivors)} survivors' private phases, "
                             f"got {len(private_phases)}")
        phases = private_phases.view()
        phases.setflags(write=False)  # on the view: the caller's array stays writable
        reveals.append({"kind": "private-phases", "clients": survivors, "phases": phases})
        total -= phases.sum(axis=0, dtype=np.uint32)

    _audit_reveal_safety(reveals, assignment)
    return (int(total) if total.ndim == 0 else total), tuple(reveals)


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
    id, each with one `take`, and the dropout correction reads its pairs.
    Without a row the round derives its own (`masking.round_phases`): the
    pairs from `channel` and the private phases from `seed`.  A row from
    another round, of the other mask mode or of another layout is refused
    with ValueError.

    The drop set is range-checked first, under every version: an id
    outside the assignment raises IndexError.  The senders are listed
    once, and the dropout correction reads the checked set and that list.
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

    dropped = _drop_set(dropped, assignment)
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

    delayed_discarded: bool | None = None
    correction, reveals = 0, ()
    if version == ALG2:
        correction, reveals = dropout_correction(absent, assignment, phases.pairs, private,
                                                 survivors=senders)
        if delayed is not None:
            delayed_discarded = True
    elif absent:
        if not naive_remedy:
            raise UnrecoverableRoundError(
                "dropouts under the group-mask-only protocol cannot be "
                "recovered without exposing masks; use version 'alg2'"
            )
        correction, reveals = dropout_correction(absent, assignment, phases.pairs, None,
                                                 survivors=senders)
        if delayed is not None:
            delayed_discarded = False

    digit_sums, mean = ps_aggregate_and_decode(symbols, correction, len(senders), cfg)
    for vector in (digit_sums, mean):
        vector.setflags(write=False)

    # One message per revealed phase: a revealer's mask share or a survivor's private phase.
    counters = {
        "phase_estimations": assignment.cross_pair_count(),
        "uplink_messages": len(senders),
        "recovery_messages": sum(len(r["phases"]) for r in reveals
                                 if r["kind"] == "mask-shares"),
        "private_phase_reveals": sum(len(r["phases"]) for r in reveals
                                     if r["kind"] == "private-phases"),
    }
    return RoundTranscript(
        iteration=t,
        assignment=assignment,
        symbols=symbols,
        senders=tuple(senders),
        version=version,
        mask_mode=PER_SYMBOL_MASKS if per_symbol else SCALAR_MASKS,
        dropped=tuple(sorted(dropped)),
        delayed=delayed,
        delayed_discarded=delayed_discarded,
        reveals=reveals,
        counters=counters,
        aggregate=digit_sums,
        decoded_mean=mean,
        # The channel is noiseless, so the FEC code only sets the reported bit
        # counts; tests/test_codec.py checks that it is a lossless inverse pair.
        codec_metrics=codec_metrics(cfg, fec or FecConfig(scheme="none"), dimension),
    )


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
