"""Per-layer tracing: which program functions are wrapped, and the
per-layer metrics computed from the spans.

The spans are recorded around calls into each layer's public functions
from these benchmark files; nothing under ``src/`` knows about them.
Module-level functions imported by name (``hash_value``,
``canonical_bytes`` ...) are patched in every module that holds them.
"""

from __future__ import annotations

import sys

from harness import Tracer

import repro.crypto.hashing as hashing
import repro.util.encoding as encoding
from repro.core.controller import ObjectValidatorAdapter
from repro.core.node import OrganisationNode
from repro.core.readcache import ReadCache
from repro.crypto.signature import RsaSigner, RsaVerifier
from repro.crypto.timestamp import TimestampService
from repro.protocol.coordination import StateCoordinationEngine
from repro.protocol.party import ProtocolParty
from repro.protocol.pipeline import ProposalPipeline
from repro.storage.backends import FileRecordStore, MemoryRecordStore
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.transport.reliable import ReliableEndpoint
from repro.wire.framing import EnvelopeEncoder, FrameDecoder


def _result_len(args, result) -> int:
    return len(result)


def _data_len(args, result) -> int:
    return len(args[0])


def _frame_len(args, result) -> int:
    return len(args[1])


def _append_size(args, result) -> int:
    return args[0].last_append_size


def install(tracer: Tracer, network) -> None:
    """Wrap every traced layer boundary (undo with ``tracer.unpatch``)."""
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    tracer.patch_function(modules, encoding.canonical_bytes,
                          "encoding.encode", size_of=_result_len)
    tracer.patch_function(modules, encoding.from_canonical_bytes,
                          "encoding.decode", size_of=_data_len)
    tracer.patch_function(modules, hashing.hash_value, "crypto.hash")
    tracer.patch_function(modules, hashing.secure_hash, "crypto.hash",
                          inherit=("crypto.hash",))
    tracer.patch_attr(RsaSigner, "sign_bytes", "crypto.sign",
                      inherit=("crypto.tsa",))
    tracer.patch_attr(RsaVerifier, "verify_bytes", "crypto.verify")
    tracer.patch_attr(TimestampService, "stamp_digest", "crypto.tsa")
    for store_cls in (MemoryRecordStore, FileRecordStore):
        tracer.patch_attr(store_cls, "append", "storage.append",
                          size_of=_append_size)
    tracer.patch_attr(NonRepudiationLog, "record", "storage.log")
    tracer.patch_attr(MessageJournal, "record_message", "storage.journal")
    tracer.patch_attr(CheckpointStore, "save", "storage.checkpoint")
    tracer.patch_attr(EnvelopeEncoder, "encode", "wire.encode",
                      size_of=_result_len)
    tracer.patch_attr(FrameDecoder, "decode", "wire.decode",
                      size_of=_frame_len)
    for cls in type(network).__mro__:
        if "send" in cls.__dict__:
            tracer.patch_attr(cls, "send", "transport.send")
            break
    tracer.patch_attr(ReliableEndpoint, "send", "transport.reliable")
    tracer.patch_attr(ProtocolParty, "handle", "protocol.handle")
    for attr in ("propose_update", "propose_update_batch",
                 "propose_overwrite"):
        tracer.patch_attr(StateCoordinationEngine, attr, "protocol.propose")
    for attr in ("validate_update", "validate_state"):
        tracer.patch_attr(ObjectValidatorAdapter, attr, "protocol.validation")
    tracer.patch_attr(ProposalPipeline, "submit", "protocol.pipeline")
    tracer.patch_attr(OrganisationNode, "examine", "core.examine")
    tracer.patch_attr(ReadCache, "read", "core.read")
    tracer.patch_attr(ReadCache, "refresh", "core.refresh")


#: (metric, unit, better) for every per-layer metric, in output order.
PER_LAYER = [
    ("encoding.calls_per_update", "count", "lower"),
    ("encoding.kib_per_update", "KiB", "lower"),
    ("encoding.cpu_ms_per_update", "ms", "lower"),
    ("crypto.sign.calls_per_update", "count", "lower"),
    ("crypto.verify.calls_per_update", "count", "lower"),
    ("crypto.tsa.calls_per_update", "count", "lower"),
    ("crypto.hash.calls_per_update", "count", "lower"),
    ("crypto.sign.cpu_ms_per_update", "ms", "lower"),
    ("crypto.verify.cpu_ms_per_update", "ms", "lower"),
    ("crypto.tsa.cpu_ms_per_update", "ms", "lower"),
    ("crypto.hash.cpu_ms_per_update", "ms", "lower"),
    ("storage.appends_per_update", "count", "lower"),
    ("storage.kib_per_update", "KiB", "lower"),
    ("storage.cpu_ms_per_update", "ms", "lower"),
    ("storage.wall_ms_per_update", "ms", "lower"),
    ("storage.log.records_per_update", "count", "lower"),
    ("storage.journal.records_per_update", "count", "lower"),
    ("storage.checkpoint.records_per_update", "count", "lower"),
    ("wire.frames_per_update", "count", "lower"),
    ("wire.kib_per_update", "KiB", "lower"),
    ("transport.sends_per_update", "count", "lower"),
    ("transport.reliable_sends_per_update", "count", "lower"),
    ("transport.retransmits_per_update", "count", "lower"),
    ("transport.cpu_ms_per_update", "ms", "lower"),
    ("protocol.handle.cpu_ms_per_update", "ms", "lower"),
    ("protocol.propose.cpu_ms_per_update", "ms", "lower"),
    ("protocol.validation.cpu_ms_per_update", "ms", "lower"),
    ("protocol.runs_per_update", "count", "lower"),
    ("protocol.vetoes_per_update", "count", "lower"),
    ("core.readcache.hit_ratio", "ratio", "higher"),
    ("core.readcache.refreshes_per_read", "count", "lower"),
    ("core.readcache.read_cpu_us", "us", "lower"),
    ("core.cpu_ms_per_update", "ms", "lower"),
    ("idle_ms_per_update", "ms", "lower"),
    ("other.cpu_ms_per_update", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("error_rate", "ratio", "lower"),
]

#: Span names whose self CPU makes up each layer CPU metric.  Every span
#: name ``install`` records belongs to exactly one entry, so these
#: metrics plus ``other.cpu_ms_per_update`` add up to the process CPU.
LAYER_SPANS = {
    "encoding.cpu_ms_per_update": ("encoding.encode", "encoding.decode"),
    "crypto.sign.cpu_ms_per_update": ("crypto.sign",),
    "crypto.verify.cpu_ms_per_update": ("crypto.verify",),
    "crypto.tsa.cpu_ms_per_update": ("crypto.tsa",),
    "crypto.hash.cpu_ms_per_update": ("crypto.hash",),
    "storage.cpu_ms_per_update": ("storage.append", "storage.log",
                                  "storage.journal", "storage.checkpoint"),
    # The wire codec counts as transport: on the simulator there is no
    # codec, and a time metric that is 0 on every run of a workload
    # would read as a constant rather than a measurement.
    "transport.cpu_ms_per_update": ("transport.send", "transport.reliable",
                                    "wire.encode", "wire.decode"),
    "protocol.handle.cpu_ms_per_update": ("protocol.handle",),
    "protocol.propose.cpu_ms_per_update": ("protocol.propose",
                                           "protocol.pipeline"),
    "protocol.validation.cpu_ms_per_update": ("protocol.validation",),
    "core.cpu_ms_per_update": ("core.examine", "core.read", "core.refresh"),
}


def per_layer_metrics(totals, phase, untraced, outcomes_error_rate: float
                      ) -> "tuple[dict, list[str]]":
    """Per-layer metric values from one traced phase.

    *untraced* is the untraced phase of the same run (same workload and
    seed) that gives idle time and the overhead baseline.  Returns the
    values and any accounting problem found.
    """
    problems = []
    settled = max(phase.settled, 1)
    reads = max(len(phase.read_latencies), 1)

    def stat(name):
        return totals.get(name)

    def calls(*names):
        return sum(stat(n).calls for n in names if stat(n) is not None)

    def size(*names):
        return sum(stat(n).size for n in names if stat(n) is not None)

    def self_cpu(*names):
        return sum(stat(n).self_cpu for n in names if stat(n) is not None)

    def self_wall(*names):
        return sum(stat(n).self_wall for n in names if stat(n) is not None)

    per = 1000.0 / settled
    values = {
        "encoding.calls_per_update":
            calls("encoding.encode", "encoding.decode") / settled,
        "encoding.kib_per_update":
            size("encoding.encode", "encoding.decode") / 1024.0 / settled,
        "crypto.sign.calls_per_update": calls("crypto.sign") / settled,
        "crypto.verify.calls_per_update": calls("crypto.verify") / settled,
        "crypto.tsa.calls_per_update": calls("crypto.tsa") / settled,
        "crypto.hash.calls_per_update": calls("crypto.hash") / settled,
        "storage.appends_per_update": calls("storage.append") / settled,
        "storage.kib_per_update": size("storage.append") / 1024.0 / settled,
        "storage.wall_ms_per_update":
            self_wall(*LAYER_SPANS["storage.cpu_ms_per_update"]) * per,
        "storage.log.records_per_update": calls("storage.log") / settled,
        "storage.journal.records_per_update":
            calls("storage.journal") / settled,
        "storage.checkpoint.records_per_update":
            calls("storage.checkpoint") / settled,
        "wire.frames_per_update": calls("wire.encode") / settled,
        "wire.kib_per_update": size("wire.encode") / 1024.0 / settled,
        "transport.sends_per_update": calls("transport.send") / settled,
        "transport.reliable_sends_per_update":
            calls("transport.reliable") / settled,
        "transport.retransmits_per_update": phase.retransmissions / settled,
        "protocol.runs_per_update": phase.runs / settled,
        "protocol.vetoes_per_update": phase.vetoes / settled,
        "core.readcache.hit_ratio": phase.read_hits / reads,
        "core.readcache.refreshes_per_read": calls("core.refresh") / reads,
        "core.readcache.read_cpu_us":
            (stat("core.read").incl_cpu if stat("core.read") else 0.0)
            * 1e6 / reads,
        "error_rate": outcomes_error_rate,
    }
    for metric, names in LAYER_SPANS.items():
        values[metric] = self_cpu(*names) * per
    claimed = {name for names in LAYER_SPANS.values() for name in names}
    for name, stats in sorted(totals.items()):
        if name not in claimed:
            problems.append(f"span {name}: in no layer CPU metric")
        if stats.self_cpu < -1e-6:
            problems.append(f"span {name}: negative self CPU "
                            f"{stats.self_cpu:.6f}s")
    cpu_ms = phase.cpu_s * per
    attributed = sum(values[metric] for metric in LAYER_SPANS)
    values["other.cpu_ms_per_update"] = cpu_ms - attributed
    # The reported layer CPU plus the unclaimed rest is the process CPU
    # per update; the rest cannot be negative, since spans on the
    # threads' CPU clocks cannot claim more than the process used.
    if values["other.cpu_ms_per_update"] < -0.01 * cpu_ms - 0.002 * per:
        problems.append(f"spans claim {attributed:.4f} ms CPU per update "
                        f"but the process used {cpu_ms:.4f} ms")
    untraced_settled = max(untraced.settled, 1)
    wall_ms = untraced.wall_s * 1000.0 / untraced_settled
    untraced_cpu_ms = untraced.cpu_s * 1000.0 / untraced_settled
    values["idle_ms_per_update"] = wall_ms - untraced_cpu_ms
    values["trace.overhead_ratio"] = cpu_ms / untraced_cpu_ms - 1.0
    return values, problems
