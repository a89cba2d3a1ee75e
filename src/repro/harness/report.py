"""Plain-text tables in the style of the paper's figures, plus a
machine-readable JSON envelope for CI gating (``repro analyze --json``)."""

from __future__ import annotations

import json
import numbers
from typing import Any, Dict, Iterable, List, Sequence

#: Version tag of the benchmark envelope (see docs/observability.md).
BENCH_SCHEMA = "repro-bench/v1"

#: Version tag of the ``repro analyze --json`` envelope.  Bump only on
#: breaking shape changes; *additive* fields (new sections, new row keys)
#: keep the version, which is what lets CI diff baselines across them.
ANALYZE_SCHEMA = "repro-analyze/v1"


def fmt(value: Any) -> str:
    """Human-friendly cell formatting.

    Any real zero — including ``-0.0`` and NumPy scalar zeros, which are not
    ``float`` instances and used to fall through to ``str()`` and render as
    ``"-0.0"`` — formats as plain ``"0"``; a non-zero value whose rounded
    rendering collapses to zero is likewise normalised so no stray sign
    survives into the tables.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        value = float(value)
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            out = f"{value:.3g}"
        else:
            out = f"{value:.2f}"
        if float(out) == 0:
            return "0"
        return out
    return str(value)


def table(title: str, headers: Sequence[str],
          rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned table with a title rule."""
    srows: List[List[str]] = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [f"== {title} =="]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in srows:
        out.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence[Any]]) -> None:
    print()
    print(table(title, headers, rows))


def seconds(ns: float) -> float:
    return ns * 1e-9


def json_payload(sections: Dict[str, Iterable[Dict[str, Any]]],
                 ok: bool) -> Dict[str, Any]:
    """Normalise analysis results into one machine-readable envelope.

    ``sections`` maps a section name (e.g. ``"static"``) to dict rows, one
    per finding/outcome.  The envelope carries an overall verdict so CI can
    gate on ``payload["ok"]`` (or the process exit code) alone, and a
    schema tag (:data:`ANALYZE_SCHEMA`) so baseline diffs stay stable
    across additive field changes.
    """
    norm = {name: [dict(r) for r in rows] for name, rows in sections.items()}
    return {
        "schema": ANALYZE_SCHEMA,
        "ok": bool(ok),
        "sections": norm,
        "counts": {name: len(rows) for name, rows in norm.items()},
    }


def validate_analyze_envelope(env: Dict[str, Any]) -> List[str]:
    """Schema check for an analyze envelope; returns a list of problems."""
    problems: List[str] = []
    if not isinstance(env, dict):
        return ["envelope is not a JSON object"]
    if env.get("schema") != ANALYZE_SCHEMA:
        problems.append(
            f"schema is {env.get('schema')!r}, expected {ANALYZE_SCHEMA!r}"
        )
    if not isinstance(env.get("ok"), bool):
        problems.append("ok is not a boolean")
    sections = env.get("sections")
    if not isinstance(sections, dict):
        problems.append("sections is not an object")
        return problems
    for name, rows in sections.items():
        if not isinstance(rows, list) \
                or not all(isinstance(r, dict) for r in rows):
            problems.append(f"section {name!r} is not a list of objects")
    counts = env.get("counts")
    if not isinstance(counts, dict):
        problems.append("counts is not an object")
    else:
        for name, rows in sections.items():
            if counts.get(name) != len(rows):
                problems.append(f"counts[{name!r}] does not match section")
    return problems


def render_json(sections: Dict[str, Iterable[Dict[str, Any]]],
                ok: bool) -> str:
    return json.dumps(json_payload(sections, ok), indent=2, sort_keys=True)


def bench_envelope(pr: int, suite: str, metrics: Dict[str, float],
                   gates: Iterable[Dict[str, Any]],
                   wall: bool = False) -> Dict[str, Any]:
    """Build the schema-versioned benchmark envelope CI gates on.

    Deliberately carries **no wall-clock timestamp**: every metric is a
    simulated quantity, so the same commit produces byte-identical
    envelopes on any machine — which is what makes committing
    ``BENCH_pr<N>.json`` meaningful.  ``wall=True`` marks an envelope whose
    machine-dependent wall-clock layer ran (``"wall": true``); the key is
    absent otherwise, so the default envelope's bytes do not change.
    """
    env = {
        "schema": BENCH_SCHEMA,
        "pr": int(pr),
        "suite": suite,
        "metrics": {k: metrics[k] for k in sorted(metrics)},
        "gates": [dict(g) for g in gates],
    }
    if wall:
        env["wall"] = True
    return env


def validate_envelope(env: Dict[str, Any]) -> List[str]:
    """Schema check for a bench envelope; returns a list of problems."""
    problems: List[str] = []
    if not isinstance(env, dict):
        return ["envelope is not a JSON object"]
    if env.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is {env.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    if not isinstance(env.get("pr"), int):
        problems.append("pr is not an integer")
    if not isinstance(env.get("suite"), str):
        problems.append("suite is not a string")
    if "wall" in env and not isinstance(env["wall"], bool):
        problems.append("wall is not a boolean")
    metrics = env.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("metrics is not a non-empty object")
    else:
        for k, v in metrics.items():
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                problems.append(f"metric {k!r} is not a number")
    gates = env.get("gates")
    if not isinstance(gates, list):
        problems.append("gates is not a list")
    else:
        for g in gates:
            if not isinstance(g, dict) or "metric" not in g \
                    or "tolerance" not in g or "direction" not in g:
                problems.append(f"malformed gate entry: {g!r}")
            elif g.get("direction") not in ("lower", "higher"):
                problems.append(
                    f"gate {g['metric']!r} direction must be lower|higher"
                )
            elif isinstance(metrics, dict) and g["metric"] not in metrics:
                problems.append(f"gate {g['metric']!r} has no metric value")
    return problems
