"""Seeded inputs: one table shape shared by every workload.

The table is generated here from the run's seed with numpy alone, never
through ``repro.datasets``, so a change under ``src/`` cannot change what
the benchmark feeds the program.  Each Boolean attribute has a planted
range on one numeric attribute where it is more often true, so the catalog
holds real rules rather than noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUM_NUMERIC = 4
NUM_BOOLEAN = 52


@dataclass(frozen=True)
class Table:
    """Column-major rows: integer-valued float64 numerics, then Booleans."""

    numeric_names: tuple[str, ...]
    boolean_names: tuple[str, ...]
    numeric: tuple[np.ndarray, ...]
    boolean: tuple[np.ndarray, ...]

    @property
    def num_rows(self) -> int:
        return int(self.numeric[0].shape[0])

    @property
    def names(self) -> tuple[str, ...]:
        return self.numeric_names + self.boolean_names

    def rows(self, start: int, stop: int) -> "Table":
        return Table(
            self.numeric_names,
            self.boolean_names,
            tuple(column[start:stop] for column in self.numeric),
            tuple(column[start:stop] for column in self.boolean),
        )


def generate(rows: int, seed: int) -> Table:
    """``rows`` rows drawn from ``seed``.  A caller that needs a base table
    plus appended batches generates them together and slices."""
    rng = np.random.default_rng([seed, 0x5EED])
    numeric = (
        rng.integers(0, 100_000, rows),
        np.rint(rng.lognormal(10.0, 1.0, rows)),
        np.rint(np.clip(rng.normal(50_000, 15_000, rows), 0, None)),
        np.rint(rng.exponential(20_000, rows)),
    )
    numeric = tuple(np.asarray(column, dtype=np.float64) for column in numeric)
    boolean = []
    for index in range(NUM_BOOLEAN):
        values = numeric[index % NUM_NUMERIC]
        start = rng.uniform(0.0, 0.7)
        low, high = np.quantile(values, [start, start + rng.uniform(0.1, 0.3)])
        inside = rng.uniform(0.5, 0.9)
        outside = rng.uniform(0.05, 0.35)
        chance = np.where((values >= low) & (values <= high), inside, outside)
        boolean.append(rng.random(rows) < chance)
    return Table(
        tuple(f"num{index}" for index in range(NUM_NUMERIC)),
        tuple(f"flag{index:02d}" for index in range(NUM_BOOLEAN)),
        numeric,
        tuple(boolean),
    )


def csv_lines(table: Table) -> str:
    """Data rows as CSV text: integers, and ``yes``/``no`` Booleans."""
    columns = [[str(int(value)) for value in column] for column in table.numeric]
    columns += [np.where(column, "yes", "no").tolist() for column in table.boolean]
    return "".join(",".join(row) + "\n" for row in zip(*columns))


def write_csv(table: Table, path: Path) -> None:
    path.write_text(",".join(table.names) + "\n" + csv_lines(table), encoding="utf-8")


def write_npy_dir(table: Table, directory: Path) -> None:
    """The column-directory layout ``NpyDirectorySource`` reads: one ``.npy``
    per column plus a ``columns.json`` manifest of names and kinds."""
    directory.mkdir(parents=True)
    for name, column in zip(table.names, table.numeric + table.boolean):
        np.save(directory / f"{name}.npy", column)
    manifest = [[name, "numeric"] for name in table.numeric_names]
    manifest += [[name, "boolean"] for name in table.boolean_names]
    (directory / "columns.json").write_text(
        json.dumps({"columns": manifest}), encoding="utf-8"
    )
