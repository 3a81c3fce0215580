"""Plain-text tables and series for experiment output.

Every benchmark prints the same rows/series the paper reports and also
appends them to ``benchmarks/results/<experiment>.txt`` so artifacts
survive a quiet pytest run.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    cols = [list(map(_fmt, col)) for col in zip(headers, *rows)]
    widths = [max(len(v) for v in col) for col in cols]
    out: List[str] = []
    if title:
        out.append(title)
    header_line = "  ".join(h.ljust(w)
                            for h, w in zip(map(_fmt, headers), widths))
    out.append(header_line)
    out.append("-" * len(header_line))
    for row in rows:
        out.append("  ".join(_fmt(v).ljust(w)
                             for v, w in zip(row, widths)))
    return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def normalize(values: Dict[str, float],
              baseline_key: str) -> Dict[str, float]:
    """Divide every entry by the baseline (paper's 'Normalized Exe')."""
    base = values[baseline_key]
    return {k: (v / base if base else 0.0) for k, v in values.items()}


def results_dir() -> str:
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    path = os.path.join(here, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def emit(experiment: str, text: str) -> None:
    """Print and persist one experiment's output."""
    print()
    print(f"===== {experiment} =====")
    print(text)
    path = os.path.join(results_dir(), f"{experiment}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
