"""Span tracing around the public functions of phaseagg's modules.

The program is not edited: `install` replaces each target function, in
every phaseagg module that refers to it, with a wrapper that records a
span.  Spans are aggregated in memory by (parent, name) as they close, so
the self time of a layer is its span time minus the time of the traced
spans it caused.  Only the traced run installs wrappers; end-to-end
numbers come from runs without them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (metric prefix, module, attribute); a dotted attribute is a method.
TARGETS = [
    ("rng.keyed_turn", "phaseagg.rng", "keyed_turn"),
    ("rng.keyed_turn_vector", "phaseagg.rng", "keyed_turn_vector"),
    ("channel.sample_round_channel", "phaseagg.channel", "sample_round_channel"),
    ("channel.pair_phase_stream", "phaseagg.channel", "pair_phase_stream"),
    ("masking.compute_group_mask", "phaseagg.masking", "compute_group_mask"),
    ("masking.sample_private_phase", "phaseagg.masking", "sample_private_phase"),
    ("masking.apply_mask", "phaseagg.masking", "apply_mask"),
    ("masking.mask_shares", "phaseagg.masking", "mask_shares"),
    ("codec.modulate", "phaseagg.codec", "modulate"),
    ("codec.decode_sum", "phaseagg.codec", "decode_sum"),
    ("codec.fec_encode", "phaseagg.codec", "fec_encode"),
    ("codec.fec_decode", "phaseagg.codec", "fec_decode"),
    ("codec.digits_to_bits", "phaseagg.codec", "digits_to_bits"),
    ("codec.bits_to_digits", "phaseagg.codec", "bits_to_digits"),
    ("protocol.run_round", "phaseagg.protocol", "run_round"),
    ("protocol.client_message", "phaseagg.protocol", "client_message"),
    ("protocol.ps_aggregate_and_decode", "phaseagg.protocol", "ps_aggregate_and_decode"),
    ("protocol.dropout_correction", "phaseagg.protocol", "dropout_correction"),
    ("protocol.RoundTranscript.to_json_dict", "phaseagg.protocol", "RoundTranscript.to_json_dict"),
    ("protocol.run_iteration", "phaseagg.protocol", "run_iteration"),
    ("cli.parse_config", "phaseagg.cli", "parse_config"),
    ("cli.write_transcripts", "phaseagg.cli", "write_transcripts"),
    ("fl.quantized_digits", "phaseagg.fl", "quantized_digits"),
    ("fl.sample_loss", "phaseagg.fl", "sample_loss"),
    ("fl.sgd_update", "phaseagg.fl", "sgd_update"),
    ("analysis.verify_overhead", "phaseagg.analysis", "verify_overhead"),
]

FEC_ROUNDTRIP = ("codec.fec_encode", "codec.fec_decode",
                 "codec.digits_to_bits", "codec.bits_to_digits")


class Tracer:
    """Per-(parent, name) span totals: calls, total seconds, self seconds."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child seconds] of open spans

    def wrap(self, name: str, fn):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "<root>"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]

        return traced

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds], over all parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, own) in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out

    def spans(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": calls,
             "total_s": total, "self_s": own}
            for (parent, name), (calls, total, own) in sorted(self.edges.items())
        ]


def span_cost() -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare no-op."""
    def noop(*args, **kwargs):
        return None

    calls = 20000
    wrapped = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            noop(calls)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped(calls)
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def replace_everywhere(original, replacement) -> None:
    """Point every phaseagg module attribute bound to `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "phaseagg" or modname.startswith("phaseagg.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; record the others as absent."""
    for name, modname, attr in TARGETS:
        module = sys.modules.get(modname)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, original)
        if owner_name:
            setattr(owner, method, wrapped)
        else:
            replace_everywhere(original, wrapped)
