"""The benchmark's workloads, driven through the middleware's public API.

Each workload builds a community of three organisations in this
process, founds its shared objects, warms up, then measures one phase
of client operations and checks what the program produced:

* ``serial_tcp`` — closed loop, one client, reactor TCP with the binary
  codec, 512-bit keys, in-memory stores, one object;
* ``durable_sim_2048`` — closed loop, one client, the deterministic
  simulator with 5 ms latency and 1% drop plus 1% duplication per link,
  2048-bit keys, fsync'd file stores;
* ``mixed_sharded`` — one client with up to four writes in flight,
  reactor TCP, in-memory stores, 16 objects over 4 shards, 90% reads
  (cached and bounded), 10% writes through the proposal pipeline.

Inputs come only from the seed.  See ``perfbench/README.md`` for why
each workload exists and which layers it loads.
"""

from __future__ import annotations

import collections
import os
import random
import shutil
import string
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from harness import Outcomes, min_samples_for
from repro.core import Community, DictB2BObject, SimRuntime, ThreadedRuntime
from repro.core.readcache import BOUNDED, bounded, cached
from repro.errors import B2BError
from repro.protocol.events import (
    MisbehaviourEvent,
    RunCompleted,
    StateInstalled,
)
from repro.protocol.pipeline import is_transient_rejection
from repro.protocol.validation import Decision
from repro.storage.backends import FileRecordStore, MemoryRecordStore
from repro.transport.inmemory import LinkProfile
from repro.transport.tcp import TcpNetwork

NAMES = ["OrgA", "OrgB", "OrgC"]
KEYS = 64
VALUE_CHARS = 40
ALPHABET = string.ascii_letters + string.digits
#: Give up on one closed-loop update after this many vetoed attempts.
MAX_ATTEMPTS = 50
#: A closed-loop run never measures longer than this, however few
#: samples it has gathered.
MAX_MEASURE_SECONDS = 120.0


def random_value(rng: random.Random) -> str:
    return "".join(rng.choices(ALPHABET, k=VALUE_CHARS))


def initial_state(rng: random.Random) -> dict:
    """About 3 KiB of agreed state: 64 keys of 40-character values."""
    return {f"k{i:02d}": random_value(rng) for i in range(KEYS)}


# ----------------------------------------------------------------------
# observing the program
# ----------------------------------------------------------------------

class Monitor:
    """Listens to every node's events for the output checks.

    Records each installed state by ``(object, version)`` — the set of
    states a read may legitimately return — plus the proposer-side run
    outcomes and any misbehaviour report.
    """

    def __init__(self, community: Community) -> None:
        self._lock = threading.Lock()
        self.installed: "dict[tuple[str, int], Any]" = {}
        self.settle_times: "dict[tuple[str, str], float]" = {}
        self.runs = 0
        self.vetoes = 0
        self.misbehaviour: "list[MisbehaviourEvent]" = []
        for name, node in community.nodes.items():
            node.add_listener(lambda event, _name=name: self._on(_name, event))

    def _on(self, party: str, event: Any) -> None:
        if isinstance(event, StateInstalled):
            now = time.perf_counter()
            key = (event.object_name, int(event.state_id["seq"]))
            with self._lock:
                self.installed.setdefault(key, event.state)
                self.settle_times.setdefault(
                    (event.object_name, event.run_id), now)
        elif isinstance(event, RunCompleted):
            if event.role == "proposer" and event.kind == "state":
                with self._lock:
                    self.runs += 1
                    if not event.valid:
                        self.vetoes += 1
        elif isinstance(event, MisbehaviourEvent):
            with self._lock:
                self.misbehaviour.append(event)

    def record_initial(self, community: Community,
                       objects: "list[str]") -> None:
        for object_name in objects:
            result = community.node(NAMES[0]).examine(object_name, cached())
            self.installed[(object_name, result.version)] = \
                result.snapshot.state


def store_bytes(community: Community) -> int:
    """Bytes held by every party's evidence, journal and checkpoint stores.

    File stores count their file size; in-memory stores count the
    canonical bytes they retain (what a file store would have written,
    less the newlines).
    """
    total = 0
    for node in community.nodes.values():
        ctx = node.ctx
        for owner in (ctx.evidence, ctx.journal, ctx.checkpoints):
            store = owner._store
            if isinstance(store, FileRecordStore):
                store._file.flush()
                total += os.path.getsize(store._path)
            elif isinstance(store, MemoryRecordStore):
                total += sum(len(blob) for blob in store._records)
    return total


@dataclass
class ReadRecord:
    party: str
    object_name: str
    version: int
    state: Any
    mode: str
    max_staleness: "Optional[float]"
    hit: bool
    staleness: float


@dataclass
class Phase:
    """What one measured phase produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    settled: int = 0
    settle_latencies: "list[float]" = field(default_factory=list)
    read_latencies: "list[float]" = field(default_factory=list)
    store_bytes: int = 0
    read_hits: int = 0
    runs: int = 0
    vetoes: int = 0
    retransmissions: int = 0


class Deployment:
    """One built community plus what the checks need to know about it."""

    def __init__(self, community: Community, objects: "dict[str, dict]",
                 owners: "dict[str, str]", expected: "dict[str, dict]",
                 tmpdir: "Optional[str]") -> None:
        self.community = community
        self.objects = objects  # object name -> {party: B2BObject}
        self.owners = owners    # object name -> proposing party
        self.expected = expected  # object name -> state the checks expect
        self.tmpdir = tmpdir
        self.monitor = Monitor(community)
        self.monitor.record_initial(community, list(objects))
        self.reads: "list[ReadRecord]" = []
        self.outcomes = Outcomes()
        # Client-side input state, set by the workload that built it.
        self.rng: "Optional[random.Random]" = None
        self.sequence = 0
        self.ops: Any = None
        self.expected_order: "dict[str, list]" = {}

    def read(self, party: str, object_name: str, mode: Any) -> float:
        """One validated read; returns its latency in seconds.

        The timed call includes taking ``result.state``, the private copy
        a caller of ``examine()`` works with, and that copy is what the
        read checks see.
        """
        started = time.perf_counter()
        try:
            result = self.community.node(party).examine(object_name, mode)
            state = result.state
        except B2BError:
            self.outcomes.read(False)
            return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        self.outcomes.read(True)
        self.reads.append(ReadRecord(
            party, object_name, result.version, state,
            result.mode.kind, result.mode.max_staleness, result.hit,
            result.staleness))
        return elapsed

    def retransmissions(self) -> int:
        return sum(node.endpoint.retransmissions
                   for node in self.community.nodes.values())

    def close(self) -> None:
        self.community.close()
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def check_deployment(dep: Deployment) -> "list[str]":
    """Every output check; returns one line per failure (empty = correct)."""
    problems: "list[str]" = []
    community = dep.community
    for object_name, replicas in dep.objects.items():
        seen = []
        for party in NAMES:
            try:
                result = community.node(party).examine(object_name)
            except B2BError as exc:
                problems.append(f"{object_name}@{party}: settled read "
                                f"failed: {exc}")
                continue
            seen.append((party, result.version, result.snapshot.state))
            if replicas[party].get_state() != result.snapshot.state:
                problems.append(f"{object_name}@{party}: application "
                                f"replica differs from the agreed state")
        versions = {version for _, version, _ in seen}
        if len(versions) > 1:
            problems.append(f"{object_name}: replicas at different "
                            f"versions {sorted(versions)}")
        if any(state != seen[0][2] for _, _, state in seen[1:]):
            problems.append(f"{object_name}: replicas hold different states")
        if seen and seen[0][2] != dep.expected[object_name]:
            problems.append(f"{object_name}: agreed state is not the "
                            f"accepted updates applied in order")
    for party, node in community.nodes.items():
        try:
            if node.ctx.evidence.verify_chain() <= 0:
                problems.append(f"{party}: empty evidence log")
        except B2BError as exc:
            problems.append(f"{party}: evidence chain broken: {exc}")
        if node.misbehaviour_reports:
            problems.append(f"{party}: {len(node.misbehaviour_reports)} "
                            f"misbehaviour reports")
    if dep.monitor.misbehaviour:
        problems.append(f"{len(dep.monitor.misbehaviour)} misbehaviour "
                        f"events observed")
    problems.extend(check_reads(dep.reads, dep.monitor.installed))
    return problems


def check_reads(reads: "list[ReadRecord]",
                installed: "dict[tuple[str, int], Any]") -> "list[str]":
    """Reads never go back, honour their bound and return settled states."""
    problems = []
    last: "dict[tuple[str, str], int]" = {}
    for read in reads:
        key = (read.party, read.object_name)
        if read.version < last.get(key, -1):
            problems.append(f"{read.object_name}@{read.party}: version went "
                            f"back from {last[key]} to {read.version}")
        last[key] = max(read.version, last.get(key, -1))
        if (read.mode == BOUNDED and read.hit
                and read.staleness > read.max_staleness):
            problems.append(f"{read.object_name}@{read.party}: bounded read "
                            f"{read.staleness:.4f}s stale > "
                            f"{read.max_staleness}s")
        settled = installed.get((read.object_name, read.version), _MISSING)
        if settled is _MISSING or settled != read.state:
            problems.append(f"{read.object_name}@{read.party}: read version "
                            f"{read.version} is not a settled state")
    return problems[:20]


_MISSING = object()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class PolicyObject(DictB2BObject):
    """Dictionary object whose validator runs a small CPU-only policy."""

    def validate_update(self, update: Any, resulting: Any, current: Any,
                        proposer: str) -> Decision:
        if not isinstance(update, dict) or not update:
            return Decision.reject("policy: empty update")
        for key, value in update.items():
            if (not key.startswith("k") or not isinstance(value, str)
                    or len(value) > 64):
                return Decision.reject(f"policy: bad entry {key!r}")
        if len(resulting) > KEYS:
            return Decision.reject("policy: too many keys")
        return Decision.accept()


class Workload:
    """Common shape: build, warm up, measure a phase, check."""

    name = ""
    #: Percentile reported as ``settle_tail_ms`` / ``read_tail_ms``.
    settle_tail = 90.0
    read_tail = 90.0
    #: Set-ups timed per untraced run (``setup_s`` is their median).
    setup_repeats = 1
    #: Fixed update counts for deterministic traced phases (None: timed).
    traced_updates: "Optional[int]" = None
    #: Writes go through the proposal pipeline, which retries benign
    #: busy vetoes itself; the vetoed runs then count as errors here.
    pipelined = False

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root

    def parameters(self) -> dict:
        raise NotImplementedError

    def build(self, keys: int = 0) -> Deployment:
        """A fresh deployment; *keys* picks one of the seed's key sets.

        The timed set-ups of a run each generate a different key set, so
        ``setup_s`` (a median over them) depends less on how long one
        seed's prime search happens to take.
        """
        raise NotImplementedError

    def community_seed(self, keys: int) -> str:
        return f"{self.seed}:{keys}"

    def warm_up(self, dep: Deployment) -> None:
        raise NotImplementedError

    def measure(self, dep: Deployment, seconds: float,
                updates: "Optional[int]" = None) -> Phase:
        raise NotImplementedError

    def _begin(self, dep: Deployment) -> dict:
        """Reset the outcome counts and note the counters a phase moves."""
        dep.outcomes = Outcomes()
        return {"bytes": store_bytes(dep.community),
                "runs": dep.monitor.runs, "vetoes": dep.monitor.vetoes,
                "retransmissions": dep.retransmissions(),
                "reads": len(dep.reads),
                "cpu": time.process_time(), "wall": time.perf_counter()}

    def _end(self, dep: Deployment, phase: Phase, before: dict) -> Phase:
        """Close a phase: its wall and CPU time, then what it changed."""
        phase.wall_s = time.perf_counter() - before["wall"]
        phase.cpu_s = time.process_time() - before["cpu"]
        self.drain(dep)
        phase.store_bytes = store_bytes(dep.community) - before["bytes"]
        phase.runs = dep.monitor.runs - before["runs"]
        phase.vetoes = dep.monitor.vetoes - before["vetoes"]
        if self.pipelined:
            dep.outcomes.vetoed += phase.vetoes
        phase.retransmissions = (dep.retransmissions()
                                 - before["retransmissions"])
        phase.read_hits = sum(r.hit for r in dep.reads[before["reads"]:])
        return phase

    def drain(self, dep: Deployment) -> None:
        """Let in-flight traffic finish before checking or tracing."""
        runtime = dep.community.runtime
        if isinstance(runtime, SimRuntime):
            runtime.settle()
        else:
            deadline = time.monotonic() + 30.0
            while (time.monotonic() < deadline
                   and any(node.endpoint.outstanding_count()
                           for node in dep.community.nodes.values())):
                time.sleep(0.005)


class ClosedLoopWorkload(Workload):
    """One client: update, wait for settlement, read back, repeat."""

    key_bits = 512
    warm_up_updates = 20
    retransmit_interval = 0.05

    def make_runtime(self):
        raise NotImplementedError

    def storage_dir(self) -> "Optional[str]":
        return None

    def build(self, keys: int = 0) -> Deployment:
        rng = random.Random(f"{self.name}:{self.seed}:state")
        state = initial_state(rng)
        tmpdir = self.storage_dir()
        community = Community(NAMES, runtime=self.make_runtime(),
                              seed=self.community_seed(keys),
                              key_bits=self.key_bits, storage_dir=tmpdir,
                              retransmit_interval=self.retransmit_interval)
        replicas = {name: DictB2BObject(state) for name in NAMES}
        community.found_object("shared", replicas)
        dep = Deployment(community, {"shared": replicas},
                         {"shared": NAMES[0]}, {"shared": dict(state)},
                         tmpdir)
        dep.rng = random.Random(f"{self.name}:{self.seed}:updates")
        return dep

    def _one_update(self, dep: Deployment) -> "Optional[float]":
        """One update until it settles; its latency in seconds, or None."""
        node = dep.community.node(NAMES[0])
        key = f"k{dep.sequence % KEYS:02d}"
        update = {key: random_value(dep.rng)}
        dep.sequence += 1
        started = time.perf_counter()
        if self.pipelined:
            dep.outcomes.attempted += 1
            ticket = node.submit_update("shared", update)
            node.wait_for_pipeline(ticket)
            if ticket.done and ticket.valid:
                dep.expected["shared"].update(update)
                return time.perf_counter() - started
            if not ticket.done:
                dep.outcomes.unsettled += 1
            dep.outcomes.failed_updates += 1
            return None
        # A synchronous client retries a benign busy veto at once.
        for _ in range(MAX_ATTEMPTS):
            try:
                ticket = node.propagate_update("shared", update)
            except B2BError:
                dep.outcomes.update_attempt(True, False)
                continue
            node.wait_for_ticket(ticket)
            dep.outcomes.update_attempt(ticket.done, ticket.valid)
            if ticket.done and ticket.valid:
                dep.expected["shared"].update(update)
                return time.perf_counter() - started
            if not ticket.done or not is_transient_rejection(
                    ticket.diagnostics):
                break
        dep.outcomes.failed_updates += 1
        return None

    def warm_up(self, dep: Deployment) -> None:
        for _ in range(self.warm_up_updates):
            self._one_update(dep)
            dep.read(NAMES[dep.sequence % len(NAMES)], "shared", cached())

    def measure(self, dep: Deployment, seconds: float,
                updates: "Optional[int]" = None) -> Phase:
        phase = Phase()
        need = min_samples_for(self.settle_tail)
        before = self._begin(dep)
        while True:
            elapsed = time.perf_counter() - before["wall"]
            if updates is not None:
                if phase.settled + dep.outcomes.failed_updates >= updates:
                    break
            elif ((elapsed >= seconds and len(phase.settle_latencies) >= need)
                  or elapsed >= MAX_MEASURE_SECONDS):
                break
            latency = self._one_update(dep)
            if latency is not None:
                phase.settled += 1
                phase.settle_latencies.append(latency)
            party = NAMES[dep.sequence % len(NAMES)]
            phase.read_latencies.append(dep.read(party, "shared", cached()))
        return self._end(dep, phase, before)


class SerialTcp(ClosedLoopWorkload):
    name = "serial_tcp"
    setup_repeats = 5
    # Loopback TCP loses nothing; a short timer would only resend when a
    # GIL stall delays an acknowledgement.
    retransmit_interval = 0.5

    def parameters(self) -> dict:
        return {"loop": "closed", "clients": 1, "parties": len(NAMES),
                "transport": "reactor-tcp", "codec": "binary",
                "key_bits": self.key_bits, "stores": "memory",
                "objects": 1, "keys": KEYS, "read_mode": "cached",
                "writes": "propagate_update",
                "warm_up_updates": self.warm_up_updates,
                "settle_tail_percentile": self.settle_tail,
                "read_tail_percentile": self.read_tail}

    def make_runtime(self):
        return ThreadedRuntime(TcpNetwork(reactor=True, codec="binary"))


class DurableSim2048(ClosedLoopWorkload):
    name = "durable_sim_2048"
    key_bits = 2048
    setup_repeats = 3
    traced_updates = 60
    pipelined = True
    latency = 0.005
    drop = 0.01
    duplicate = 0.01

    def parameters(self) -> dict:
        return {"loop": "closed", "clients": 1, "parties": len(NAMES),
                "transport": "simulator", "latency_s": self.latency,
                "drop": self.drop, "duplicate": self.duplicate,
                "key_bits": self.key_bits, "stores": "file+fsync",
                "objects": 1, "keys": KEYS, "read_mode": "cached",
                "writes": "submit_update",
                "warm_up_updates": self.warm_up_updates,
                "traced_updates": self.traced_updates,
                "settle_tail_percentile": self.settle_tail,
                "read_tail_percentile": self.read_tail}

    def make_runtime(self):
        profile = LinkProfile(latency=self.latency,
                              drop_probability=self.drop,
                              duplicate_probability=self.duplicate)
        return SimRuntime(seed=self.seed, profile=profile)

    def storage_dir(self) -> "Optional[str]":
        # Inside the checkout: the benchmark writes nowhere else.
        base = os.path.join(self.root, "perfbench", "out", "tmp")
        os.makedirs(base, exist_ok=True)
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=base)


class MixedSharded(Workload):
    """Zipf-skewed reads and pipelined writes over 4 shards.

    One client thread walks a seeded operation stream: in every block of
    ten operations one is a write (``submit_update`` at the object's
    owning organisation) and nine are reads (``examine``, a third of
    them ``bounded``).  Reads are synchronous; at most ``window`` writes
    are in flight, so the client waits for the oldest before submitting
    another.
    """

    name = "mixed_sharded"
    pipelined = True
    setup_repeats = 3
    key_bits = 512
    objects = 16
    shards = 4
    window = 4
    write_share = 0.10
    bounded_share = 1.0 / 3.0
    staleness_bound = 0.05
    zipf_s = 1.1

    def parameters(self) -> dict:
        return {"loop": "closed", "clients": 1,
                "writes_in_flight": self.window,
                "parties": len(NAMES), "transport": "reactor-tcp",
                "codec": "binary", "key_bits": self.key_bits,
                "stores": "memory", "objects": self.objects,
                "shards": self.shards, "zipf_s": self.zipf_s,
                "write_share": self.write_share,
                "bounded_share_of_reads": round(self.bounded_share, 4),
                "staleness_bound_s": self.staleness_bound,
                "shard_workers": False,
                "writes": "submit_update on the event-loop thread",
                "settle_tail_percentile": self.settle_tail,
                "read_tail_percentile": self.read_tail}

    def object_names(self) -> "list[str]":
        return [f"obj-{i:02d}" for i in range(self.objects)]

    def build(self, keys: int = 0) -> Deployment:
        rng = random.Random(f"{self.name}:{self.seed}:state")
        community = Community(
            NAMES,
            runtime=ThreadedRuntime(TcpNetwork(reactor=True, codec="binary")),
            seed=self.community_seed(keys), key_bits=self.key_bits,
            retransmit_interval=0.5, num_shards=self.shards,
            shard_workers=False)
        objects, owners, expected = {}, {}, {}
        for index, object_name in enumerate(self.object_names()):
            state = {f"k{i:02d}": random_value(rng) for i in range(8)}
            replicas = {name: PolicyObject(state) for name in NAMES}
            community.found_object(object_name, replicas)
            objects[object_name] = replicas
            owners[object_name] = NAMES[index % len(NAMES)]
            expected[object_name] = dict(state)
        dep = Deployment(community, objects, owners, expected, None)
        dep.ops = self._ops(random.Random(f"{self.name}:{self.seed}:ops"))
        return dep

    def _ops(self, rng: random.Random):
        """The seeded operation stream: (kind, object, party, mode|update)."""
        names = self.object_names()
        weights = [1.0 / (rank + 1) ** self.zipf_s
                   for rank in range(len(names))]
        block = int(round(1.0 / self.write_share))
        while True:
            chosen = rng.choices(names, weights=weights, k=block)
            write_at = rng.randrange(block)
            for index, object_name in enumerate(chosen):
                if index == write_at:
                    update = {f"k{rng.randrange(KEYS):02d}":
                              random_value(rng)}
                    yield ("write", object_name, None, update)
                else:
                    mode = (bounded(self.staleness_bound)
                            if rng.random() < self.bounded_share
                            else cached())
                    yield ("read", object_name, rng.choice(NAMES), mode)

    def _write(self, dep: Deployment, object_name: str,
               update: dict) -> list:
        """Submit one update; returns a box that receives its ticket.

        The submission runs on the network's event-loop thread, which
        handles every party's protocol work in this process (shard
        workers are off), so no two threads ever append to one party's
        evidence log at once (see README: the log has no lock).
        """
        node = dep.community.node(dep.owners[object_name])
        dep.outcomes.attempted += 1
        box: list = []

        def submit() -> None:
            try:
                ticket = node.submit_update(object_name, update)
            except B2BError as exc:
                box.append(exc)
                return
            dep.expected_order.setdefault(object_name, []).append(
                (ticket, update))
            box.append(ticket)

        dep.community.runtime.network.schedule(0.0, submit)
        return box

    @staticmethod
    def _wait(box: list, deadline: float) -> Any:
        """The box's ticket once resolved (None or an error otherwise)."""
        while not box and time.monotonic() < deadline:
            time.sleep(0.0005)
        ticket = box[0] if box else None
        if ticket is not None and not isinstance(ticket, Exception):
            ticket.wait_signal(max(0.0, deadline - time.monotonic()))
        return ticket

    def _settle_writes(self, dep: Deployment, pending: list,
                       phase: Phase) -> None:
        """Wait for every submitted write; record latency and outcome.

        Each write is timed from *start*, its submission, to its
        settlement at the proposer.
        """
        deadline = time.monotonic() + 60.0
        for box, start, object_name in pending:
            ticket = self._wait(box, deadline)
            if ticket is None or isinstance(ticket, Exception):
                dep.outcomes.failed_updates += 1
                continue
            if not ticket.done:
                dep.outcomes.unsettled += 1
                dep.outcomes.failed_updates += 1
                continue
            if not ticket.valid:
                dep.outcomes.failed_updates += 1
                continue
            phase.settled += 1
            settled_at = dep.monitor.settle_times.get(
                (object_name, ticket.run_id))
            if settled_at is not None:
                phase.settle_latencies.append(settled_at - start)
        for object_name, entries in dep.expected_order.items():
            for ticket, update in entries:
                if ticket.done and ticket.valid:
                    dep.expected[object_name].update(update)
        dep.expected_order.clear()

    def warm_up(self, dep: Deployment) -> None:
        pending = []
        for object_name in self.object_names():
            update = {"k00": random_value(random.Random(object_name))}
            pending.append((self._write(dep, object_name, update),
                            time.perf_counter(), object_name))
        self._settle_writes(dep, pending, Phase())
        for object_name in self.object_names():
            for party in NAMES:
                dep.read(party, object_name, cached())
                dep.read(party, object_name,
                         bounded(self.staleness_bound))

    def measure(self, dep: Deployment, seconds: float,
                updates: "Optional[int]" = None) -> Phase:
        phase = Phase()
        pending: list = []
        in_flight: "collections.deque[list]" = collections.deque()
        before = self._begin(dep)
        deadline = before["wall"] + seconds
        while time.perf_counter() < deadline:
            kind, object_name, party, arg = next(dep.ops)
            if kind == "read":
                phase.read_latencies.append(dep.read(party, object_name, arg))
                continue
            if len(in_flight) >= self.window:
                self._wait(in_flight.popleft(), time.monotonic() + 60.0)
            box = self._write(dep, object_name, arg)
            in_flight.append(box)
            pending.append((box, time.perf_counter(), object_name))
        self._settle_writes(dep, pending, phase)
        return self._end(dep, phase, before)


WORKLOADS: "dict[str, Callable[[int, str], Workload]]" = {
    SerialTcp.name: SerialTcp,
    DurableSim2048.name: DurableSim2048,
    MixedSharded.name: MixedSharded,
}
