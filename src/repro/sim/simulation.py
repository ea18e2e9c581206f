"""The mobile-social-service lifecycle simulator.

Each step:

1. **drift** — every user's attribute values take a bounded random-walk
   step (interests shift gradually; the Gaussian scale is configurable);
2. **periodic upload** — users whose upload period elapsed re-run the full
   client pipeline (Keygen + InitData + Enc + Auth) on their current
   profile and re-upload; the server moves them between key groups when
   their fuzzy key changed;
3. **queries** — a random subset of users query; each verifies the results
   with Vf and the simulator scores the outcome against ground truth
   (Definition-3 distance on the *current* plaintext profiles).

Metrics per step capture the deployment-facing behaviour of the fuzzy
key-group construction under churn: group counts and sizes, re-uploads that
changed groups, match precision among verified results, and verification
failures (which, against this honest server, measure honest key drift
rather than forgery).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional

from repro.core.keygen import ProfileKey
from repro.core.profile import Profile, profile_distance
from repro.core.scheme import SMatch
from repro.datasets.schema import DatasetSpec
from repro.datasets.synthetic import ClusteredPopulation
from repro.errors import ParameterError
from repro.experiments.common import build_scheme
from repro.net.messages import QueryRequest, UploadMessage
from repro.obs import pipeline_span
from repro.obs.trace import span
from repro.server.service import SMatchServer
from repro.utils.rand import SystemRandomSource

__all__ = ["SimConfig", "StepMetrics", "MobileServiceSimulation"]


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters."""

    num_users: int = 40
    steps: int = 20
    upload_period: int = 5
    query_probability: float = 0.2
    drift_sigma: float = 0.6
    theta: int = 8
    plaintext_bits: int = 64
    query_k: int = 5
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_users < 2:
            raise ParameterError("need at least 2 users")
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")
        if self.upload_period < 1:
            raise ParameterError("upload_period must be >= 1")
        if not 0 <= self.query_probability <= 1:
            raise ParameterError("query_probability must be in [0, 1]")
        if self.drift_sigma < 0:
            raise ParameterError("drift_sigma must be >= 0")


@dataclass
class StepMetrics:
    """Everything recorded for one simulation step."""

    step: int
    uploads: int = 0
    group_changes: int = 0
    queries: int = 0
    results_returned: int = 0
    results_verified: int = 0
    verified_true_matches: int = 0
    num_groups: int = 0
    largest_group: int = 0

    @property
    def match_precision(self) -> float:
        """Fraction of verified results that are genuinely theta-close."""
        if self.results_verified == 0:
            return float("nan")
        return self.verified_true_matches / self.results_verified


class MobileServiceSimulation:
    """Drives a population of drifting users against an honest server."""

    def __init__(
        self,
        spec: DatasetSpec,
        config: Optional[SimConfig] = None,
        scheme: Optional[SMatch] = None,
    ) -> None:
        self.config = config = config if config is not None else SimConfig()
        self._rng = SystemRandomSource(seed=config.seed)
        self.population = ClusteredPopulation(
            spec, theta=config.theta, rng=self._rng
        )
        generated = self.population.generate(config.num_users)
        self.profiles: Dict[int, Profile] = {
            u.profile.user_id: u.profile for u in generated
        }
        self.scheme = scheme or build_scheme(
            spec,
            theta=config.theta,
            plaintext_bits=config.plaintext_bits,
            seed=config.seed,
            schema=self.population.schema,
            query_k=config.query_k,
        )
        self.server = SMatchServer(query_k=config.query_k)
        self._keys: Dict[int, ProfileKey] = {}
        self._upload_offset: Dict[int, int] = {
            uid: self._rng.randrange(0, config.upload_period)
            for uid in self.profiles
        }
        self.history: List[StepMetrics] = []
        self._clock = 0
        # initial enrollment for everyone
        for uid in list(self.profiles):
            self._enroll(uid)

    # -- internals -----------------------------------------------------------------

    def _enroll(self, uid: int) -> bool:
        """(Re-)enroll a user; returns True when their key group changed."""
        with span("sim.enroll", user=uid):
            profile = self.profiles[uid]
            # every key this loop issues is uploaded at once, so the last
            # one names the group the server holds the user in
            last_key = self._keys.get(uid)
            previous = last_key.index if last_key is not None else None
            payload, key = self.scheme.enroll(profile)
            self._keys[uid] = key
            self.server.handle_upload(UploadMessage(payload=payload))
            return previous is not None and previous != payload.key_index

    def _drift(self, uid: int) -> None:
        profile = self.profiles[uid]
        values = []
        for value, spec in zip(profile.values, profile.schema.attributes):
            step = round(self._rng.gauss(0.0, self.config.drift_sigma))
            values.append(max(0, min(spec.cardinality - 1, value + step)))
        self.profiles[uid] = profile.with_values(tuple(values))

    # -- public API ------------------------------------------------------------------

    def step(self) -> StepMetrics:
        """Advance the simulation one step."""
        with span("sim.step", step=self._clock):
            return self._step()

    def _step(self) -> StepMetrics:
        config = self.config
        metrics = StepMetrics(step=self._clock)

        for uid in self.profiles:
            self._drift(uid)

        for uid in self.profiles:
            if self._clock % config.upload_period == self._upload_offset[uid]:
                changed = self._enroll(uid)
                metrics.uploads += 1
                metrics.group_changes += int(changed)

        for uid, profile in self.profiles.items():
            if self._rng.random() >= config.query_probability:
                continue
            metrics.queries += 1
            result = self.server.handle_query(
                QueryRequest(
                    query_id=self._clock, timestamp=self._clock, user_id=uid
                )
            )
            metrics.results_returned += len(result.entries)
            for entry in result.entries:
                if not self.scheme.verify(entry.auth, self._keys[uid]):
                    continue
                metrics.results_verified += 1
                other = self.profiles[entry.user_id]
                # ground truth on the *current* plaintexts; drift since the
                # last upload relaxes the bound by the drift amplitude
                slack = config.upload_period * max(
                    1, round(3 * config.drift_sigma)
                )
                if profile_distance(profile, other) <= config.theta + slack:
                    metrics.verified_true_matches += 1

        sizes = sorted(
            chain.from_iterable(self.server.tier.shard_sizes().values()),
            reverse=True,
        )
        metrics.num_groups = len(sizes)
        metrics.largest_group = sizes[0] if sizes else 0
        self.history.append(metrics)
        self._clock += 1
        return metrics

    def run(self) -> List[StepMetrics]:
        """Run the configured number of steps; returns the full history."""
        with pipeline_span(
            "sim.run",
            users=self.config.num_users,
            steps=self.config.steps,
        ):
            for _ in range(self.config.steps):
                self.step()
        return self.history

    # -- summaries ------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics across the whole run."""
        if not self.history:
            raise ParameterError("run the simulation first")
        total_uploads = sum(m.uploads for m in self.history)
        total_changes = sum(m.group_changes for m in self.history)
        total_verified = sum(m.results_verified for m in self.history)
        total_true = sum(m.verified_true_matches for m in self.history)
        return {
            "steps": len(self.history),
            "uploads": total_uploads,
            "group_change_rate": (
                total_changes / total_uploads if total_uploads else 0.0
            ),
            "queries": sum(m.queries for m in self.history),
            "verified_results": total_verified,
            "match_precision": (
                total_true / total_verified if total_verified else float("nan")
            ),
            "final_groups": self.history[-1].num_groups,
            "final_largest_group": self.history[-1].largest_group,
        }
