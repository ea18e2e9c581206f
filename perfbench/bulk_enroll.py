"""``bulk_enroll``: an operator onboarding cohorts of a few hundred profiles.

Each cohort goes through ``SMatch.enroll_population`` on a
``ProcessBackend(nproc)`` with its default shared-memory result transport.
Each payload is then forwarded as ``UploadMessage.encode()`` ->
``decode_message`` -> ``handle_message``.

The scheme uses ``ope_expansion_bits=16``, the ``OpeParams`` default.  At
N = M the OPE is the identity, so this is the only workload in which the
OPE descent and ``OpeNodeCache`` do work; the ``repro.parallel`` fan-out,
the shared-memory arena and the lazy wire views run in no other workload.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, Optional

from harness import Phase, PoolExhausted, digest, nproc
from repro.datasets import INFOCOM06
from repro.errors import ReproError
from repro.experiments.common import build_population, build_scheme
from repro.net.messages import UploadMessage, decode_message
from repro.obs.trace import span
from repro.parallel import ProcessBackend
from repro.server.service import SMatchServer

COHORT_SIZE = 200
#: Cohorts available to timed phases.  A cohort takes about 1 s with two
#: workers, so this covers a phase of about a minute; a phase that still
#: runs out raises instead of ending early.
COHORTS = 60
#: The warm-up cohort run in set-up: starts the pool and ships the scheme.
WARMUP_PROFILES = 4
#: Profiles per cohort re-enrolled serially by the check.  Each profile's
#: upload is a pure function of (seed, uid), so a subset re-enrolls
#: byte-identically to its share of the parallel batch.
CHECKED_PER_COHORT = 8


class BulkEnroll:
    """Closed loop: one operator, one cohort at a time."""

    name = "bulk_enroll"
    tail_pct = 99.0
    #: The report's name and scale (ns per unit) of each latency series.
    series = {"upload": ("upload_us", 1e3)}
    trace_limit: Optional[int] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rnd = random.Random(seed)
        population = build_population(INFOCOM06, seed=seed)
        profiles = [
            u.profile
            for u in population.generate(
                WARMUP_PROFILES + COHORTS * COHORT_SIZE
            )
        ]
        self.cohorts = [profiles[:WARMUP_PROFILES]] + [
            profiles[start : start + COHORT_SIZE]
            for start in range(WARMUP_PROFILES, len(profiles), COHORT_SIZE)
        ]
        self.checked = {
            p.user_id
            for cohort in self.cohorts
            for p in rnd.sample(cohort, min(CHECKED_PER_COHORT, len(cohort)))
        }
        with span("experiments.build_scheme"):
            self.scheme = build_scheme(
                INFOCOM06,
                schema=population.schema,
                seed=seed,
                ope_expansion_bits=16,
            )
        self.backend = ProcessBackend(nproc())
        self.server = SMatchServer(query_k=5)
        self.next_cohort = 0
        #: wire bytes of the forwarded uploads the check re-enrolls
        self.forwarded: Dict[int, bytes] = {}
        self.run(math.inf, limit=1)

    def input_hash(self) -> str:
        params = repr(self.scheme.params).encode()
        profiles = [
            repr((p.user_id, tuple(p.values))).encode()
            for cohort in self.cohorts
            for p in cohort
        ]
        return digest([self.name.encode(), params] + profiles)

    def describe(self) -> Dict[str, object]:
        return {
            "workers": self.backend.workers,
            "shm": self.backend.shm_enabled,
            "cohort_size": COHORT_SIZE,
        }

    def _onboard(self, cohort, phase: Phase) -> None:
        with span("core.enroll_population"):
            uploads, _ = self.scheme.enroll_population(
                cohort, backend=self.backend, seed=self.seed
            )
        handle = self.server.handle_message
        for profile in cohort:
            began = time.perf_counter_ns()
            with span("net.encode_upload"):
                raw = UploadMessage(payload=uploads[profile.user_id]).encode()
            with span("net.decode_message"):
                message = decode_message(raw)
            with span("server.handle_message.upload"):
                handle(message)
            phase.record("upload", time.perf_counter_ns() - began)
            if profile.user_id in self.checked:
                self.forwarded[profile.user_id] = raw

    def run(self, seconds: float, limit: Optional[int] = None) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        deadline = start + seconds
        cohorts = 0
        while cohorts != limit and time.perf_counter() < deadline:
            if self.next_cohort >= len(self.cohorts):
                raise PoolExhausted(
                    f"all {len(self.cohorts)} cohorts were used before the "
                    f"{seconds}s phase ended; raise COHORTS"
                )
            cohort = self.cohorts[self.next_cohort]
            self.next_cohort += 1
            cohorts += 1
            phase.attempted += len(cohort)
            try:
                self._onboard(cohort, phase)
            except ReproError:
                phase.failed += len(cohort)
                continue
            phase.completed += len(cohort)
        phase.wall_s = time.perf_counter() - start
        phase.counts["cohorts"] = cohorts
        phase.counts["profiles"] = phase.completed
        phase.counts["uploads"] = phase.completed
        return phase

    def finish(self) -> None:
        """Nothing to do after the timed phase."""

    def layer_extras(self) -> Dict[str, float]:
        return {}

    def check(self) -> Dict[str, int]:
        """Forwarded uploads equal a serial enrollment's, byte for byte."""
        by_uid = {
            p.user_id: p
            for cohort in self.cohorts
            for p in cohort
            if p.user_id in self.forwarded
        }
        serial, _ = self.scheme.enroll_population(
            list(by_uid.values()), backend="serial", seed=self.seed
        )
        return {
            "serial_mismatches": sum(
                UploadMessage(payload=serial[uid]).encode() != raw
                for uid, raw in self.forwarded.items()
            )
        }

    def close(self) -> None:
        self.backend.close()
        self.server.close()
