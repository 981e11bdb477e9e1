"""Seeded input generator and the numpy ground truth every op is checked against.

The generator builds one mixed-dtype table: three float columns, one int
column, a string column with 4 distinct values, one with 200, and a
clustered (monotonically increasing) ``YYYY-MM-DD HH:MM:SS`` timestamp.
Every cell except the timestamp is missing with probability 5%.  Floats are
``k / 1e6`` for integer ``k``, so their ``%.6f`` CSV text parses back to the
identical double and min/max can be compared exactly.

The oracle (:class:`Truth`) is computed with numpy from the generator's
arrays, never from the program's output.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

FLOATS = ("f0", "f1", "f2")
INTS = ("i0",)
NUMERIC = FLOATS + INTS
STRINGS = ("c4", "c200")
TIMESTAMP = "ts"
COLUMNS = NUMERIC + STRINGS + (TIMESTAMP,)
#: Column names grouped by storage dtype, for the per-dtype parse split.
BY_DTYPE = {"float": FLOATS, "int": INTS, "string": STRINGS,
            "datetime": (TIMESTAMP,)}
MISSING_RATE = 0.05
_START = np.datetime64("2020-01-01T00:00:00", "s")
_C4 = np.array(["alpha", "beta", "gamma", "delta"])
_C200 = np.array([f"k{index:03d}" for index in range(200)])


@dataclass
class Table:
    """Generated column arrays plus a missing mask per column."""

    values: Dict[str, np.ndarray]
    missing: Dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.values[TIMESTAMP])

    def present(self, name: str) -> np.ndarray:
        return self.values[name][~self.missing[name]]

    def take(self, mask: np.ndarray) -> "Table":
        return Table({k: v[mask] for k, v in self.values.items()},
                     {k: v[mask] for k, v in self.missing.items()})

    def concat(self, other: "Table") -> "Table":
        return Table(
            {k: np.concatenate([v, other.values[k]]) for k, v in self.values.items()},
            {k: np.concatenate([v, other.missing[k]]) for k, v in self.missing.items()})

    def csv_header(self) -> bytes:
        return (",".join(COLUMNS) + "\n").encode()

    def csv_rows(self) -> bytes:
        """The rows as CSV text (no header), missing cells left empty."""
        cells: List[np.ndarray] = []
        for name in COLUMNS:
            values = self.values[name]
            if name in FLOATS:
                text = np.char.mod("%.6f", values)
            elif name == TIMESTAMP:
                text = np.char.replace(np.datetime_as_string(values, unit="s"), "T", " ")
            else:
                text = values.astype(str)
            text = text.astype(object)
            text[self.missing[name]] = ""
            cells.append(text)
        return "".join(",".join(row) + "\n" for row in zip(*cells)).encode()

    def frame_columns(self) -> Dict[str, np.ndarray]:
        """Arrays for ``repro.DataFrame``: NaN / None mark missing cells."""
        columns: Dict[str, np.ndarray] = {}
        for name in COLUMNS:
            values, missing = self.values[name], self.missing[name]
            if name in FLOATS:
                values = np.where(missing, np.nan, values)
            elif name != TIMESTAMP:
                values = values.astype(object)
                values[missing] = None
            columns[name] = values
        return columns

    def cutoff(self, share: float) -> dt.datetime:
        """The timestamp above which about *share* of the rows lie."""
        index = min(len(self) - 1, int(len(self) * (1.0 - share)))
        return self.values[TIMESTAMP][index].astype(dt.datetime)


def generate(seed: int, rows: int, stream: int = 0,
             after: Optional[np.datetime64] = None) -> Table:
    """*rows* rows from the generator stream ``(seed, stream)``.

    Stream 0 is the base table; other streams make appended deltas whose
    timestamps continue after *after*.
    """
    rng = np.random.default_rng([seed, stream])
    values = {
        "f0": np.rint(rng.normal(50.0, 10.0, rows) * 1e6) / 1e6,
        "f1": np.rint(rng.exponential(3.0, rows) * 1e6) / 1e6,
        "f2": np.rint(rng.uniform(-1.0, 1.0, rows) * 1e6) / 1e6,
        "i0": rng.integers(0, 1000, rows),
        "c4": _C4[rng.integers(0, len(_C4), rows)],
        "c200": _C200[rng.integers(0, len(_C200), rows)],
    }
    start = _START if after is None else after
    gaps = rng.integers(1, 60, rows).astype("timedelta64[s]")
    values[TIMESTAMP] = start + np.cumsum(gaps)
    missing = {name: rng.random(rows) < MISSING_RATE for name in COLUMNS}
    missing[TIMESTAMP] = np.zeros(rows, dtype=bool)
    return Table(values, missing)


# --------------------------------------------------------------------------- #
# Ground truth and the checks of each op's output.
# --------------------------------------------------------------------------- #
def _near(got: Any, want: float, rel: float = 1e-9, absolute: float = 0.0) -> bool:
    try:
        return abs(float(got) - want) <= max(absolute, rel * abs(want))
    except (TypeError, ValueError):
        return False


class Truth:
    """Expected statistics of a :class:`Table`, computed with numpy."""

    def __init__(self, table: Table):
        self.table = table
        self.n_rows = len(table)
        self.missing = {name: int(table.missing[name].sum()) for name in COLUMNS}
        self.numeric = {}
        for name in NUMERIC:
            present = table.present(name).astype(np.float64)
            self.numeric[name] = (float(present.mean()), float(present.min()),
                                  float(present.max()))
        self.distinct = {name: len(np.unique(table.present(name))) for name in STRINGS}

    def pearson(self, first: str, second: str) -> float:
        both = ~self.table.missing[first] & ~self.table.missing[second]
        return float(np.corrcoef(self.table.values[first][both].astype(np.float64),
                                 self.table.values[second][both].astype(np.float64))[0, 1])

    def pairs(self, first: str, second: str) -> int:
        both = ~self.table.missing[first] & ~self.table.missing[second]
        return len(set(zip(self.table.values[first][both].tolist(),
                           self.table.values[second][both].tolist())))

    # Each check returns a list of problems; an empty list means correct.
    def check_numeric(self, stats: Mapping[str, Any], name: str) -> List[str]:
        mean, low, high = self.numeric[name]
        problems = []
        if stats.get("missing") != self.missing[name]:
            problems.append(f"{name} missing {stats.get('missing')} != {self.missing[name]}")
        if stats.get("count") != self.n_rows - self.missing[name]:
            problems.append(f"{name} count {stats.get('count')}")
        if not _near(stats.get("mean"), mean):
            problems.append(f"{name} mean {stats.get('mean')} != {mean}")
        if stats.get("min") != low or stats.get("max") != high:
            problems.append(f"{name} min/max {stats.get('min')}/{stats.get('max')} "
                            f"!= {low}/{high}")
        return problems

    def check_categorical(self, stats: Mapping[str, Any], name: str) -> List[str]:
        problems = []
        if stats.get("missing") != self.missing[name]:
            problems.append(f"{name} missing {stats.get('missing')} != {self.missing[name]}")
        if stats.get("distinct") != self.distinct[name]:
            problems.append(f"{name} distinct {stats.get('distinct')} != "
                            f"{self.distinct[name]}")
        return problems

    def check_overview(self, items: Mapping[str, Any]) -> List[str]:
        overview, variables = items["overview"], items["variables"]
        problems = []
        if overview.get("n_rows") != self.n_rows:
            problems.append(f"n_rows {overview.get('n_rows')} != {self.n_rows}")
        if overview.get("missing_cells") != sum(self.missing.values()):
            problems.append(f"missing_cells {overview.get('missing_cells')}")
        for name in NUMERIC:
            problems += self.check_numeric(variables[name]["stats"], name)
        for name in STRINGS:
            problems += self.check_categorical(variables[name]["stats"], name)
        if variables[TIMESTAMP]["stats"].get("missing") != 0:
            problems.append("ts missing != 0")
        return problems

    def check_correlation(self, items: Mapping[str, Any]) -> List[str]:
        pearson = items["correlation_pearson"]
        names, matrix = pearson["columns"], pearson["matrix"]
        if sorted(names) != sorted(NUMERIC):
            return [f"correlation columns {names}"]
        problems = []
        for row, first in enumerate(names):
            for col, second in enumerate(names):
                want = 1.0 if first == second else self.pearson(first, second)
                if not _near(matrix[row][col], want, rel=0.0, absolute=1e-6):
                    problems.append(f"pearson {first}/{second} {matrix[row][col]} != {want}")
        return problems

    def check_missing(self, stats: Mapping[str, Any]) -> List[str]:
        if (stats.get("n_rows"), stats.get("missing_cells")) != \
                (self.n_rows, sum(self.missing.values())):
            return [f"missing overview {stats.get('n_rows')}/{stats.get('missing_cells')}"]
        return []

    def check_report(self, report: Any) -> List[str]:
        problems = self.check_overview(report.sections["Overview"].items)
        problems += self.check_correlation(report.sections["Correlations"].items)
        problems += self.check_missing(report.sections["Missing Values"].stats)
        return problems

    def check_call(self, call: str, columns: tuple, intermediates: Any) -> List[str]:
        """Check the intermediates of one ``plot*`` call."""
        stats, items = intermediates.stats, intermediates.items
        if call == "plot_correlation":
            return self.check_correlation(items)
        if call == "plot_missing":
            if not columns:
                return self.check_missing(stats)
            name = columns[0]
            want = (self.missing[name], self.n_rows - self.missing[name])
            got = (stats.get("missing_rows"), stats.get("rows_after_drop"))
            return [] if got == want else [f"plot_missing({name}) {got} != {want}"]
        if not columns:
            return self.check_overview(items)
        if len(columns) == 1:
            name = columns[0]
            if name in NUMERIC:
                return self.check_numeric(stats, name)
            return self.check_categorical(stats, name)
        first, second = columns
        if first in NUMERIC and second in NUMERIC:
            want = self.pearson(first, second)
            got = stats.get("pearson_correlation")
            return [] if _near(got, want, rel=0.0, absolute=1e-7) else \
                [f"pearson {got} != {want}"]
        if first in NUMERIC:
            problems = []
            if stats.get("total_categories") != self.distinct[second]:
                problems.append(f"total_categories {stats.get('total_categories')}")
            if not _near(stats.get(f"{first}_mean"), self.numeric[first][0]):
                problems.append(f"{first}_mean {stats.get(f'{first}_mean')}")
            return problems
        got = (stats.get(f"{first}_categories"), stats.get(f"{second}_categories"),
               stats.get("observed_pairs"))
        want = (self.distinct[first], self.distinct[second], self.pairs(first, second))
        return [] if got == want else [f"pair counts {got} != {want}"]
