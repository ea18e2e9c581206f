"""Shared experiment infrastructure: result tables and scheme fixtures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.profile import ProfileSchema
from repro.core.scheme import SMatch, SMatchParams
from repro.crypto.fixtures import fixed_rsa_keypair
from repro.crypto.oprf import RsaOprfServer
from repro.datasets.schema import DatasetSpec
from repro.datasets.synthetic import ClusteredPopulation
from repro.errors import ParameterError
from repro.obs.trace import span
from repro.utils.rand import SystemRandomSource

__all__ = [
    "ExperimentResult",
    "PLAINTEXT_SIZES",
    "build_scheme",
    "build_population",
]

#: The x-axis of Figs. 4(a), 4(c)-(e), 5(a)-(f).
PLAINTEXT_SIZES = (64, 128, 256, 512, 1024, 2048)


@dataclass
class ExperimentResult:
    """A reproduced table/figure: named columns and value rows."""

    name: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        """Append a row; every declared column is required."""
        missing = set(self.columns) - set(values)
        if missing:
            raise ParameterError(f"row missing columns {sorted(missing)}")
        self.rows.append({c: values[c] for c in self.columns})

    def column(self, name: str) -> List[Any]:
        """All values of one named column."""
        if name not in self.columns:
            raise ParameterError(f"no column {name!r}")
        return [row[name] for row in self.rows]

    def format(self) -> str:
        """Plain-text aligned rendering (what the benchmarks print)."""
        def render(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        table = [self.columns] + [
            [render(row[c]) for c in self.columns] for row in self.rows
        ]
        widths = [
            max(len(r[i]) for r in table) for i in range(len(self.columns))
        ]
        lines = [f"== {self.name} =="]
        for i, row in enumerate(table):
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


def build_scheme(
    spec: DatasetSpec,
    theta: int = 8,
    plaintext_bits: int = 64,
    seed: int = 1,
    schema: Optional[ProfileSchema] = None,
    parity_symbols: Optional[int] = None,
    ope_expansion_bits: int = 0,
) -> SMatch:
    """An S-MATCH instance configured for one dataset.

    Uses the fixed 1024-bit RSA parameters for the OPRF server so sweeps do
    not pay repeated key generation, and a mapper built from the dataset's
    solved distributions.  When ``schema`` is given (the numeric schema of a
    :class:`ClusteredPopulation`), the mapper treats each attribute as
    uniform over its numeric domain — the raw categorical distributions do
    not apply to the lifted numeric values.
    """
    with span("experiment.build_scheme", dataset=spec.name, bits=plaintext_bits):
        rng = SystemRandomSource(seed=seed)
        oprf = RsaOprfServer(keypair=fixed_rsa_keypair(1024), rng=rng)
        if schema is None:
            schema = ProfileSchema.uniform(
                [a.name for a in spec.attributes],
                max(a.cardinality for a in spec.attributes),
            )
        params = SMatchParams(
            schema=schema,
            theta=theta,
            plaintext_bits=plaintext_bits,
            ope_expansion_bits=ope_expansion_bits,
            parity_symbols=parity_symbols,
        )
        return SMatch(params, oprf_server=oprf, rng=rng)


def build_population(
    spec: DatasetSpec,
    theta: int = 8,
    num_users: Optional[int] = None,
    seed: int = 1,
    noise_fraction: Optional[float] = None,
) -> ClusteredPopulation:
    """A clustered population for one dataset (seeded, reproducible)."""
    return ClusteredPopulation(
        spec,
        theta=theta,
        noise_fraction=noise_fraction,
        rng=SystemRandomSource(seed=seed),
    )
