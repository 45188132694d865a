"""Per-party wiring consumed by the protocol engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.prng import RandomSource, SystemRandomSource
from repro.crypto.signature import Signer, Verifier
from repro.crypto.timestamp import TimestampService
from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.obs.trace import PartyTraceContext
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.util.clocks import Clock, SystemClock

VerifierResolver = Callable[[str], Verifier]


@dataclass
class PartyContext:
    """Everything a protocol engine needs about the local party.

    One context is shared by all engines (state coordination and
    membership) of one party, so they see one evidence log, one journal
    and one checkpoint store — matching Figure 3, where certificate
    management, non-repudiation and check-pointing are per-organisation
    middleware services.
    """

    party_id: str
    signer: Signer
    resolver: VerifierResolver
    tsa: "Optional[TimestampService]" = None
    tsa_verifier: "Optional[Verifier]" = None
    rng: RandomSource = field(default_factory=SystemRandomSource)
    clock: Clock = field(default_factory=SystemClock)
    evidence: NonRepudiationLog = None  # type: ignore[assignment]
    journal: MessageJournal = None  # type: ignore[assignment]
    checkpoints: CheckpointStore = None  # type: ignore[assignment]
    obs: Instrumentation = NULL_INSTRUMENTATION
    trace: PartyTraceContext = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.trace is None:
            self.trace = PartyTraceContext(self.party_id)
        if self.evidence is None:
            self.evidence = NonRepudiationLog(self.party_id, obs=self.obs)
        if self.journal is None:
            self.journal = MessageJournal(self.party_id, obs=self.obs,
                                          evidence=self.evidence)
        if self.checkpoints is None:
            self.checkpoints = CheckpointStore()
        if self.tsa is not None and self.tsa_verifier is None:
            self.tsa_verifier = self.tsa.verifier
