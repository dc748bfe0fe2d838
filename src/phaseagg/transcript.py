"""One round's server view: its format as one JSON line, and the server half.

A `RoundTranscript` keeps the round's read-only (senders, d) uint32 symbol
matrix, its sender ids, reveal records, counters and decoded sums;
`RoundTranscript.messages` builds the `ClientMessage` views of its rows on
first access.  `to_json_dict` defines the schema, format `TRANSCRIPT_FORMAT`,
which states each fact once, and a `transcripts.jsonl` line is that dict
dumped with sorted keys and compact separators.  The drop set, the
version and the layout fix who sent and who was asked what, so a message
is written as `{"symbols": row}` and `reveals` as each record's phases,
in query order.  `to_json_parts` renders the same bytes from the arrays
themselves, with orjson (imported on first use) a block of rows at a
time; the mean's text `float_list_json` writes with `json`, since orjson
writes some floats differently (1e-05 as 0.00001).  Every other value is
an ASCII string, a bool, None or an integer, which both write alike.
`read_transcript_line`, the one reader of a line, is the writer's inverse:
it reads this format only, and puts back what the writer leaves out.
`write_transcripts` writes a transcripts.jsonl file, whole lines only,
from any iterable of transcripts, each line as its transcript arrives:
`phaseagg run` hands it the training loop's stream (`fl.training_rounds`),
so a run holds one round, and a run that stops keeps the lines of the
rounds before it.  `read_transcripts`, its one reader, streams the file
back one line at a time.

The server half of a round lives here too, as it reads only this view:
`aggregate` refuses a lost side, audits the reveal records, and decodes
the symbol sum plus the records' `dropout_correction`.  It runs
unchanged on `protocol.run_round`'s view and on a line read back.
`delayed_message_estimate`, a curious server's reading of the late
message, reads the view alone too.  This module derives no phase: it
imports neither `channel` nor `rng`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import turns
from .codec import QuantizationConfig, decode_sum, demodulate_nearest, dequantize_mean
from .config import ALG1, ALG2, walk
from .errors import (PhaseAggError, RevealSafetyError, TranscriptFormatError,
                     UnrecoverableRoundError)
from .masking import PER_SYMBOL_MASKS, PLUS, SCALAR_MASKS, GroupAssignment, MaskedSymbols

TRANSCRIPT_FORMAT = 4

# The integers of symbol or phase rows one orjson call renders: whole rows, at least one.
_BLOCK = 2**15
# The shortest float vector `float_list_json` dedupes before rendering;
# below it, one `json.dumps` of the whole vector is faster (crossover near
# 100 values at numpy 2.4).
_DEDUPE_FLOATS = 128


@dataclass(frozen=True)
class ClientMessage:
    """One client's uplink message: its owner and its masked symbols."""

    owner: int
    masked: MaskedSymbols


def float_list_json(values) -> bytes:
    """JSON text of a float vector: `json.dumps(values.tolist(), separators=(",", ":"))`.

    A vector of at least `_DEDUPE_FLOATS` values renders each distinct
    float64 bit pattern once, by `json` itself, and gathers the texts by
    index.  A decoded mean is a function of an integer digit sum, so a
    round's vector holds few distinct values.  The key is the bit pattern,
    never the value, so 0.0 and -0.0 stay apart.  A shorter vector goes to
    `json` whole: below that length the dedupe costs more than it saves.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("a float list must be a one-dimensional array")
    if len(values) < _DEDUPE_FLOATS:
        return json.dumps(values.tolist(), separators=(",", ":")).encode()
    distinct, index = np.unique(values.view(np.uint64), return_inverse=True)
    texts = json.dumps(distinct.view(np.float64).tolist(), separators=(",", ":"))
    texts = np.array(texts[1:-1].encode().split(b","), dtype=object)
    return b"[" + b",".join(texts[index].tolist()) + b"]"


def _uint32_values(array, ndim: int) -> np.ndarray:
    """`array`, `ndim`-dimensional and of an integer dtype with values in [0, 2**32),
    as a native, C-ordered array for orjson's numpy encoder; else ValueError.
    Only an array that is not native uint32 needs its range checked, in uint64."""
    array = np.asarray(array)
    if array.ndim != ndim:
        raise ValueError(f"an integer array must be {ndim}-dimensional here, got {array.shape}")
    if array.dtype.kind not in "iu":
        raise ValueError(f"cannot write values of dtype kinds {[array.dtype.kind]} as integers")
    if array.dtype == np.uint32:
        return np.ascontiguousarray(array)
    values = np.asarray(array, dtype=np.uint64, order="C")  # a negative value wraps
    if values.size and values.max() >= turns.MODULUS:
        raise ValueError("values must lie in [0, 2**32), "
                         f"got range [{array.min()}, {array.max()}]")
    return values


@dataclass(eq=False)
class RoundTranscript:
    """Everything one aggregation round produced, ready to serialize.

    `symbols` is the round's read-only (senders, d) uint32 matrix of masked
    symbols, row k sent by client `senders[k]`.  `reveals` holds the
    clients' answers to the server's recovery queries, one record per
    query.  `aggregate` (int64), `decoded_mean` (float64, averaged over
    the senders) and `counters` are what the server half, `aggregate`,
    computes from the rest; the arrays are read-only.  They are None in a
    view the server has not aggregated yet, and `run_round` sets them
    once, on the view it built.  `late`, the delayed client's read-only (d,)
    uint32 message, is set by `run_round` only, and never written; the
    line leaves out what the rest fixes, such as `delayed_discarded`.
    Instances compare by identity: their fields hold arrays.
    """

    iteration: int
    assignment: GroupAssignment
    symbols: np.ndarray
    senders: tuple[int, ...]
    version: str
    mask_mode: str
    dropped: tuple[int, ...]
    delayed: int | None
    reveals: tuple
    codec_metrics: dict
    counters: dict | None = None
    aggregate: np.ndarray | None = None
    decoded_mean: np.ndarray | None = None
    late: np.ndarray | None = None

    @property
    def delayed_discarded(self) -> bool | None:
        """Whether the late message is discarded: under alg2.  None without a delayed client."""
        return None if self.delayed is None else self.version == ALG2

    @cached_property
    def messages(self) -> tuple[ClientMessage, ...]:
        """Every sender's `ClientMessage`, in sender order.

        Each message's symbols are a read-only view of its row of `symbols`.
        """
        return tuple(ClientMessage(owner=i, masked=MaskedSymbols(symbols=row))
                     for i, row in zip(self.senders, self.symbols))

    def to_json_dict(self) -> dict:
        """The transcript's JSON form, the one definition of its schema: arrays as lists."""
        return dict(self._json_dict(), decoded_mean=self.decoded_mean.tolist())

    def to_json_parts(self) -> Iterator:
        """One `transcripts.jsonl` line without its newline, as an iterator of byte parts.

        Joined, they equal `json.dumps(self.to_json_dict(), sort_keys=True,
        separators=(",", ":"))`.  The symbol matrix, the aggregate and each
        reveal's phases are shape- and range-checked in that order by this
        call, before any part is made; the parts are rendered as they are
        taken.  The `"messages"` list and each reveal's phases take one
        orjson call per `_BLOCK` integers of whole rows, at least one row (a
        scalar record's phases are rows of one); each run of other keys
        takes one call.
        """
        import orjson

        doc = self._json_dict(_uint32_values)
        mean = float_list_json(self.decoded_mean)
        messages, reveals = doc.pop("messages"), doc.pop("reveals")
        option = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY

        def dump(value):
            return memoryview(orjson.dumps(value, option=option))

        def rows(prefix, items, width=1):
            """`prefix`, then the JSON list of `items` of `width` integers, a call a block."""
            step = max(1, _BLOCK // max(1, width))
            yield prefix + b"["
            for start in range(0, len(items), step):
                if start:
                    yield b","
                yield dump(items[start:start + step])[1:-1]
            yield b"]"

        def parts():
            yield dump({k: v for k, v in doc.items() if k < "decoded_mean"})[:-1]
            yield b',"decoded_mean":' + mean + b","
            yield dump({k: v for k, v in doc.items() if "decoded_mean" < k < "messages"})[1:-1]
            yield from rows(b',"messages":', messages, np.shape(self.symbols)[1])
            yield b',"reveals":['
            for n, phases in enumerate(reveals):
                yield from rows(b"," if n else b"", phases, *phases.shape[1:])
            yield b"],"
            yield dump({k: v for k, v in doc.items() if k > "reveals"})[1:]

        return parts()

    def to_json_line(self) -> bytes:
        """`to_json_parts()` joined into one line."""
        return b"".join(self.to_json_parts())

    def _json_dict(self, integers=lambda array, ndim: array.tolist()) -> dict:
        """The schema but `decoded_mean`; `integers(array, ndim)` renders each integer array."""
        phases = 1 if self.mask_mode == SCALAR_MASKS else 2
        return {
            "transcript_format": TRANSCRIPT_FORMAT,
            "iteration": self.iteration,
            "version": self.version,
            "mask_mode": self.mask_mode,
            "assignment": self.assignment.to_json_dict(),
            # Left out, as the drop set, the version and the layout fix them: the
            # senders, each record's kind and the clients it names, and the
            # symbols per message.
            "messages": [{"symbols": row} for row in integers(self.symbols, 2)],
            "aggregate": integers(self.aggregate, 1),
            "reveals": [integers(r["phases"], phases) for r in self.reveals],
            "dropped": list(self.dropped),
            "delayed": self.delayed,
            "counters": dict(self.counters),
            "codec_metrics": {k: v for k, v in self.codec_metrics.items()
                              if k != "symbols_per_message"},
        }


def _audit_reveal_safety(reveals: Sequence[Mapping],
                         assignment: GroupAssignment) -> None:
    """Check no client has both its private phase and its full mask revealed.

    `reveals` holds the round's reveal records, one per query, each
    revealer a counterpart of its record's dropped client.  The share
    phi(dropped, revealer) is a component of both clients' masks.  A
    client dropped in no record is touched by at most one share per
    record, so only one whose mask has no more shares than there are
    records is checked share by share, beside every record's dropped client.
    """
    shares = [r for r in reveals if r["kind"] == "mask-shares"]
    suspects = {r["dropped"] for r in shares}
    for r in shares:
        # A revealer's mask shares are the dropped client's own side.
        i = r["dropped"]
        if assignment.side_size(assignment.group_of[i], assignment.tag_of[i]) <= len(shares):
            suspects.update(r["revealers"])
    private = set()
    for r in reveals:
        if r["kind"] == "private-phases":
            private |= suspects.intersection(r["clients"])
    for client in sorted(private):
        exposed = set()
        for r in shares:
            if r["dropped"] == client:
                exposed.update(r["revealers"])
            elif client in r["revealers"]:
                exposed.add(r["dropped"])
        if exposed.issuperset(assignment.complementary_set(client)):
            raise RevealSafetyError(
                f"reveal-safety audit failed: client {client}'s private phase "
                "and every share of its mask were both revealed"
            )


# A minus side's shares and every private phase enter the correction's
# signed sum with this sign: -1 mod 2**32.
_MINUS_ONE = 2**32 - 1


def dropout_correction(reveals: Sequence[Mapping],
                       assignment: GroupAssignment) -> int | np.ndarray:
    """What the server adds to the symbol sum for the reveal records `reveals`.

    A `mask-shares` record's phases sum to its dropped client's group
    mask: added for a plus-side client, subtracted for a minus-side one.
    A `private-phases` record's phases are subtracted.  One product signs
    and sums every row: an int for (k,) scalar phases, a uint32 array for
    (k, d) ones, and 0 for no records.
    """
    if not reveals:
        return 0
    phases = np.concatenate([r["phases"] for r in reveals])
    signs = np.full(len(phases), _MINUS_ONE, dtype=np.uint32)
    start = 0
    for r in reveals:
        end = start + len(r["phases"])
        if r["kind"] == "mask-shares" and assignment.tag_of[r["dropped"]] == PLUS:
            signs[start:end] = 1
        start = end
    # () makes a scalar total.
    total = np.matmul(signs, phases, out=np.empty(phases.shape[1:], dtype=np.uint32))
    return int(total) if total.ndim == 0 else total


def ps_aggregate_and_decode(symbols: np.ndarray, correction,
                            cfg: QuantizationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sum received phases, apply the correction, decode: (digit sums, mean).

    `symbols` is a round's (senders, d) uint32 symbol matrix, and
    `correction` an int in [0, 2**32) or a uint32 array, as
    `dropout_correction` returns it.  With every mask cancelled the
    per-element phase sum is an exact grid multiple; anything else raises
    ResidualMaskError.  The mean averages the exact integer digit sums over
    the senders, one per row.
    """
    if not len(symbols):
        raise UnrecoverableRoundError("no messages arrived; nothing to decode")
    agg = symbols.sum(axis=0, dtype=np.uint32)
    agg += correction
    sums = decode_sum(agg, cfg)
    return sums, dequantize_mean(sums, len(symbols), cfg)


def aggregate(view: RoundTranscript,
              cfg: QuantizationConfig) -> tuple[np.ndarray, np.ndarray, dict]:
    """The server half of a round: (digit sums, mean, counters), the arrays read-only.

    It reads only the view's layout, senders, drop set, delayed client,
    symbol matrix and reveal records.  It refuses a round with no sender,
    then one that lost a side, naming the first in (group, '+' before '-')
    order; it audits the records, and decodes the symbol sum plus their
    `dropout_correction`.  The counters count the layout's cross pairs,
    the senders and the revealed phases.
    """
    assignment = view.assignment
    if not view.senders:
        raise UnrecoverableRoundError("every client dropped out")
    # Every side must keep a survivor: a dropped client whose complementary
    # side is lost has nobody to reveal its shares, and a survivor's would
    # expose its whole mask beside its private phase.
    held = {}
    for i in view.dropped if view.delayed is None else (*view.dropped, view.delayed):
        side = assignment.group_of[i], assignment.tag_of[i]
        held[side] = held.get(side, 0) + 1
    lost = [side for side, count in held.items() if count == assignment.side_size(*side)]
    if lost:
        g, tag = min(lost)
        raise UnrecoverableRoundError(
            f"the {tag!r} side of group {g} lost all its clients; "
            "masks touching it can be neither reconstructed nor kept private"
        )
    _audit_reveal_safety(view.reveals, assignment)
    sums, mean = ps_aggregate_and_decode(
        view.symbols, dropout_correction(view.reveals, assignment), cfg)
    for vector in (sums, mean):
        vector.setflags(write=False)
    # One message per revealed phase: a revealer's mask share or a survivor's private phase.
    revealed = {"mask-shares": 0, "private-phases": 0}
    for r in view.reveals:
        revealed[r["kind"]] += len(r["phases"])
    return sums, mean, {
        "phase_estimations": assignment.cross_pair_count(),
        "uplink_messages": len(view.senders),
        "recovery_messages": revealed["mask-shares"],
        "private_phase_reveals": revealed["private-phases"],
    }


def delayed_message_estimate(view: RoundTranscript, cfg: QuantizationConfig) -> np.ndarray:
    """The digits a curious server reads off the view's late message, in [0, M).

    The late message less the `dropout_correction` of the view's own
    `mask-shares` record for the delayed client, demodulated to the
    nearest points.  A view without `late`, such as a line read back,
    raises ValueError.
    """
    if view.late is None:
        raise ValueError(f"round {view.iteration}'s view holds no late message to estimate")
    record = next(r for r in view.reveals
                  if r["kind"] == "mask-shares" and r["dropped"] == view.delayed)
    return demodulate_nearest(
        turns.sub(view.late, dropout_correction((record,), view.assignment)), cfg)


def new_file(path: Path, mode: str, **kwargs):
    """Open `path` for writing as a new file, removing any file there first.

    Truncating a large file and writing it again can stall the writes on
    file systems that flush a truncated file's data before reusing its
    blocks (ext4's replace-via-truncate heuristic); a new file has no old
    blocks to flush.
    """
    path.unlink(missing_ok=True)
    return path.open(mode, **kwargs)


def write_transcripts(transcripts: Iterable[RoundTranscript], path: Path) -> None:
    """Write one compact, key-sorted JSON line per `RoundTranscript` to a new file.

    A line is `t.to_json_parts()`, written part by part as rendered, so at
    most one block of symbol or phase rows is held.  A refused transcript
    raises before any byte of its line is made, and a line whose rendering
    or write fails partway is cut off again: the file holds whole lines.
    """
    with new_file(path, "wb") as handle:
        for t in transcripts:
            start = handle.tell()
            try:
                handle.writelines(t.to_json_parts())
            except BaseException:
                handle.truncate(start)
                raise
            handle.write(b"\n")


# A format-4 line's schema, as `config.walk` reads one: a tuple holds the
# JSON types or values a value may have, a dict an object's fields, and a
# one-item list a list's items.
_LINE_SCHEMA = {
    "transcript_format": (TRANSCRIPT_FORMAT,), "iteration": (int,),
    "assignment": {"mode": (str,), "group_of": [(int,)], "tag_of": (str,),
                   "num_groups": (int,), "subgroup_size": (int, type(None))},
    "version": (ALG1, ALG2), "mask_mode": (SCALAR_MASKS, PER_SYMBOL_MASKS),
    "messages": [{"symbols": (list,)}], "dropped": [(int,)],
    "delayed": (int, type(None)), "reveals": [(list,)],
    "counters": dict.fromkeys(("phase_estimations", "uplink_messages", "recovery_messages",
                               "private_phase_reveals"), (int,)),
    "aggregate": (list,), "decoded_mean": [(float,)],
    "codec_metrics": dict.fromkeys(("payload_bits", "redundancy_bits"), (int,))}


class _Constant(str):
    """A `NaN`, `Infinity` or `-Infinity` token: no schema admits its type."""

    __repr__ = str.__str__


def read_transcript_line(line, number: int | None = None) -> RoundTranscript:
    """One `transcripts.jsonl` line read back: the inverse of `RoundTranscript.to_json_parts`.

    Only format `TRANSCRIPT_FORMAT` is read.  The arrays are read-only:
    (senders, d) uint32 `symbols`, uint32 reveal phases, and d-long int64
    `aggregate` and float64 `decoded_mean`.  The reader puts back what the
    drop set, the version and the layout fix: the senders, every client
    not dropped or delayed, in order; one mask-shares record per such
    absent client, in increasing order, its revealers its
    `GroupAssignment.answerers`; and under alg2 a private-phases record,
    its clients the senders.  Fields the schema does not name are
    dropped, but in `assignment`.  Any other line, such as one without
    `transcript_format`, one holding `NaN`, `Infinity`, a number that reads
    as infinite (1e999) or an integer wider than 64 bits, an empty integer
    list, an iteration outside [0, 2**32), an assignment that
    `GroupAssignment` refuses, a drop set or delayed client outside it, a
    client dropped twice, a delayed client that is also dropped, other
    than one message per sender, other than one reveal record per query,
    or a record without one phase row per client it asked, raises
    TranscriptFormatError naming line `number` and the field: the first
    violation `config.walk` finds, else the first check after it.
    """
    where = "transcript line" if number is None else f"line {number}"

    def fail(name, problem):
        return TranscriptFormatError(f"{where}: {name!r} {problem}")

    def check(value, schema, name=""):
        """`value` as `walk` reads it with `schema`, or the first violation raised."""
        bad = []
        known = walk(value, schema, name, bad)
        if bad:
            raise TranscriptFormatError(f"{where}: {bad[0]}")
        return known

    def array(value, name, dtype, ndim):
        try:  # a ragged list, or values the writer would refuse, raise ValueError
            arr = np.array(value)  # an empty list reads as floats, and is refused
            # The schema has checked that a float list holds floats only.
            arr = arr if dtype is np.float64 else _uint32_values(arr, ndim)
        except ValueError:
            raise fail(name, f"must be a {ndim}-deep rectangular list of integers "
                             "in [0, 2**32)") from None
        arr = arr.astype(dtype)
        arr.setflags(write=False)
        return arr

    try:
        row = json.loads(line, parse_constant=_Constant)
    except ValueError as exc:
        raise TranscriptFormatError(f"{where} is not JSON: {exc}") from None
    check(row, (dict,), "line")
    known = check(row, _LINE_SCHEMA)
    del known["transcript_format"]
    fields = row["assignment"]
    try:
        assignment = GroupAssignment(**dict(fields, group_of=tuple(fields["group_of"]),
                                            tag_of=tuple(fields["tag_of"])))
    except (TypeError, ValueError, PhaseAggError) as exc:  # an unknown field, a refused layout
        raise fail("assignment", f"is not a group assignment: {exc}") from None
    dropped, delayed = tuple(known["dropped"]), known["delayed"]
    ids = [(f"dropped[{k}]", i) for k, i in enumerate(dropped)]
    for name, i in ids + [("delayed", delayed)] * (delayed is not None):
        if not 0 <= i < assignment.num_clients:
            raise fail(name, f"must be a client id below {assignment.num_clients}, got {i}")
    if known["iteration"] < 0:
        raise fail("iteration", f"must be non-negative, got {known['iteration']}")
    if known["iteration"] >= 2**32:
        raise fail("iteration", f"must be below 2**32, got {known['iteration']}")
    if len(set(dropped)) < len(dropped):
        k = next(k for k, i in enumerate(dropped) if i in dropped[:k])
        raise fail(f"dropped[{k}]", f"repeats client {dropped[k]}")
    if delayed in dropped:
        raise fail("delayed", f"names client {delayed}, who is also dropped")
    absent = set(dropped) if delayed is None else {*dropped, delayed}
    senders = tuple(i for i in range(assignment.num_clients) if i not in absent)
    ndim = 1 if known["mask_mode"] == SCALAR_MASKS else 2
    symbols = array([m["symbols"] for m in known.pop("messages")], "messages[].symbols",
                    np.uint32, 2)
    if len(symbols) != len(senders):
        raise fail("messages", f"must hold one message per sender ({len(senders)}), "
                               f"got {len(symbols)}")
    for name, dtype in (("aggregate", np.int64), ("decoded_mean", np.float64)):
        known[name] = array(known[name], name, dtype, 1)
        if len(known[name]) != symbols.shape[1]:
            raise fail(name, f"must hold {symbols.shape[1]} values, got {len(known[name])}")
    known["codec_metrics"]["symbols_per_message"] = symbols.shape[1]
    finite = np.isfinite(known["decoded_mean"])
    if not finite.all():  # JSON's 1e999 reads as inf, which the writer would not write back
        k = int(np.argmin(finite))
        raise fail(f"decoded_mean[{k}]", f"must be finite, got {known['decoded_mean'][k]}")
    # The server's queries, in order, each record naming the clients it asked.
    records = [{"kind": "mask-shares", "dropped": i,
                "revealers": assignment.answerers(i, absent)[0]} for i in sorted(absent)]
    if known["version"] == ALG2:  # every sender answers, in sender order
        records.append({"kind": "private-phases", "clients": list(senders)})
    if len(known["reveals"]) != len(records):
        raise fail("reveals", f"must hold one record per query ({len(records)}), "
                              f"got {len(known['reveals'])}")
    for k, (record, phases) in enumerate(zip(records, known["reveals"])):
        asked, each = ((record["revealers"], "revealer") if "revealers" in record
                       else (senders, "sender"))
        record["phases"] = array(phases, f"reveals[{k}]", np.uint32, ndim)
        if len(record["phases"]) != len(asked):
            raise fail(f"reveals[{k}]", f"must hold one row per {each} ({len(asked)}), "
                                        f"got {len(record['phases'])}")
    return RoundTranscript(**dict(known, assignment=assignment, symbols=symbols,
                                  senders=senders, dropped=dropped, reveals=tuple(records)))


def read_transcripts(path: Path) -> Iterator[RoundTranscript]:
    """The `RoundTranscript` of each non-blank line of `path`, read one line at a time.

    Lines are numbered from 1, as `read_transcript_line` names them in its
    refusals.  A missing file raises FileNotFoundError when first read, and
    a file with no such line TranscriptFormatError once read to its end.
    """
    rounds = 0
    with path.open("rb") as lines:
        for number, line in enumerate(lines, start=1):
            if line.strip():
                rounds += 1
                yield read_transcript_line(line, number)
    if not rounds:
        raise TranscriptFormatError(f"{path} holds no round transcripts")
