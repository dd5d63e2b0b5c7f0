"""Self-contained HTML campaign report (``python -m repro report``).

Aggregates everything the bench campaigns leave under ``benchmarks/out/``
— the tables (``table*.txt`` / ``figure6*.txt`` / ``ablation*.txt``),
``bench_summary.json``, the run ledger (``ledger.jsonl``), and any
exported traces (``trace_*.json``) — into **one** HTML file with no
external assets: styling is an inline ``<style>`` block and every chart
is inline SVG.  The file opens offline in any browser.

Strictly standard library (checked by a test that walks this module's
imports); like the rest of ``repro.obs`` it imports nothing from sibling
``repro`` packages.  Case→system grouping is passed in by the caller.
"""

from __future__ import annotations

import dataclasses
import glob
import html
import json
import os
from typing import Optional

from . import ledger as ledger_mod
from . import metrics

#: Sections rendered from plain-text table artifacts, in display order.
_TABLE_FILES = [
    ("Table 1 — fault sites", "table1_fault_sites.txt"),
    ("Table 2 — efficacy", "table2_efficacy.txt"),
    ("Table 3 — sensitivity", "table3_sensitivity.txt"),
    ("Table 4 — performance", "table4_performance.txt"),
    ("Table 5 — stack-trace baseline", "table5_stacktrace.txt"),
    ("Table 6 — new root causes", "table6_new_root_causes.txt"),
    ("Table 7 — static analysis", "table7_static_analysis.txt"),
    ("Figure 6 — rank trajectory", "figure6_rank_trajectory.txt"),
    ("Ablation — design choices", "ablation_design_choices.txt"),
    ("Ablation — lint prior", "ablation_lint_prior.txt"),
    ("Lint detectors", "table_lint_detectors.txt"),
    ("Parallel bench", "bench_parallel.txt"),
]


@dataclasses.dataclass
class ReportInputs:
    """Everything the renderer needs, already loaded from disk."""

    out_dir: str
    summary: Optional[dict]                      # bench_summary.json
    ledger_entries: list[dict]                   # ledger.jsonl
    tables: list[tuple[str, str]]                # (title, text)
    trajectories: dict[str, list[tuple[int, int]]]  # trace file -> (round, rank)
    systems: dict[str, str]                      # case_id -> system name


def _default_out_dir() -> str:
    return os.path.join(ledger_mod._REPO_ROOT, "benchmarks", "out")


def collect_report_inputs(
    out_dir: Optional[str] = None,
    systems: Optional[dict[str, str]] = None,
    ledger_path: Optional[str] = None,
) -> ReportInputs:
    """Load every artifact the report draws from; absent ones stay empty."""
    out_dir = _default_out_dir() if out_dir is None else out_dir
    summary: Optional[dict] = None
    try:
        with open(
            os.path.join(out_dir, "bench_summary.json"), encoding="utf-8"
        ) as handle:
            loaded = json.load(handle)
            summary = loaded if isinstance(loaded, dict) else None
    except (OSError, json.JSONDecodeError):
        summary = None

    if ledger_path is None:
        ledger_path = os.path.join(out_dir, "ledger.jsonl")
    entries = ledger_mod.read_entries(ledger_path)

    tables: list[tuple[str, str]] = []
    for title, filename in _TABLE_FILES:
        try:
            with open(os.path.join(out_dir, filename), encoding="utf-8") as handle:
                tables.append((title, handle.read().rstrip("\n")))
        except OSError:
            continue

    trajectories: dict[str, list[tuple[int, int]]] = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "trace_*.json"))):
        points = _rank_trajectory_from_trace(path)
        if points:
            trajectories[os.path.basename(path)] = points

    return ReportInputs(
        out_dir=out_dir,
        summary=summary,
        ledger_entries=entries,
        tables=tables,
        trajectories=trajectories,
        systems=dict(systems or {}),
    )


def _rank_trajectory_from_trace(path: str) -> list[tuple[int, int]]:
    """(round, ground-truth rank) points from an exported trace file.

    Understands both export shapes: Chrome ``trace_event`` JSON (rerank
    instants inside ``traceEvents``) and the structured ``to_json``
    document (rerank entries inside ``events``).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(document, dict):
        return []
    records = document.get("traceEvents", document.get("events", []))
    points: list[tuple[int, int]] = []
    for record in records:
        if not isinstance(record, dict) or record.get("name") != "explorer.rerank":
            continue
        args = record.get("args", {})
        round_number = args.get("round")
        rank = args.get("rank")
        if isinstance(round_number, int) and isinstance(rank, int) and rank > 0:
            points.append((round_number, rank))
    points.sort()
    return points


# ------------------------------------------------------------------ SVG bits


def _polyline_svg(
    points: list[tuple[float, float]],
    width: int = 320,
    height: int = 80,
    label: str = "",
) -> str:
    """One polyline chart; y grows upward, axes normalized to the data."""
    if not points:
        return "<em>no data</em>"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_span = (max(xs) - min(xs)) or 1.0
    y_span = (max(ys) - min(ys)) or 1.0
    pad = 6
    coords = " ".join(
        f"{pad + (x - min(xs)) / x_span * (width - 2 * pad):.1f},"
        f"{height - pad - (y - min(ys)) / y_span * (height - 2 * pad):.1f}"
        for x, y in points
    )
    title = f"<title>{html.escape(label)}</title>" if label else ""
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}"'
        f' role="img">{title}'
        f'<rect width="{width}" height="{height}" class="plot"/>'
        f'<polyline points="{coords}" class="line"/></svg>'
    )


def _sparkline_svg(values: list[float], flags: list[bool]) -> str:
    """A tiny bar sparkline; failed runs (flag False) render highlighted."""
    if not values:
        return "<em>no runs</em>"
    width, height, gap = 4, 24, 2
    top = max(values) or 1.0
    bars = []
    for index, (value, success) in enumerate(zip(values, flags)):
        bar = max(2.0, value / top * height)
        css = "bar" if success else "bar fail"
        bars.append(
            f'<rect x="{index * (width + gap)}" y="{height - bar:.1f}" '
            f'width="{width}" height="{bar:.1f}" class="{css}">'
            f"<title>{value:.3g}s{'' if success else ' (failed)'}</title></rect>"
        )
    total = len(values) * (width + gap)
    return (
        f'<svg width="{total}" height="{height}" '
        f'viewBox="0 0 {total} {height}">{"".join(bars)}</svg>'
    )


def _coverage_cell(coverage: dict) -> str:
    """One coverage-map cell: planned fraction as color, numbers as text."""
    planned = float(coverage.get("planned_fraction", 0.0))
    fired = float(coverage.get("fired_fraction", 0.0))
    # Higher planned fraction = more of the space touched = hotter cell.
    hue = int(120 * (1.0 - min(planned, 1.0)))  # green → red
    return (
        f'<td style="background:hsl({hue},70%,85%)" '
        f'title="space={coverage.get("space", 0)} '
        f'planned={coverage.get("planned", 0)} fired={coverage.get("fired", 0)} '
        f'noop={coverage.get("noop", 0)}">'
        f"{planned * 100:.1f}% / {fired * 100:.1f}%</td>"
    )


# ---------------------------------------------------------------- rendering


_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem;
       max-width: 72rem; color: #1c2733; }
h1 { border-bottom: 2px solid #1c2733; padding-bottom: .3rem; }
h2 { margin-top: 2rem; border-bottom: 1px solid #c5ccd3; }
table { border-collapse: collapse; margin: .6rem 0; font-size: .85rem; }
th, td { border: 1px solid #c5ccd3; padding: .25rem .55rem; text-align: right; }
th { background: #eef1f4; }
td.name, th.name { text-align: left; }
pre { background: #f6f8fa; border: 1px solid #d8dee4; padding: .7rem;
      overflow-x: auto; font-size: .78rem; }
svg .plot { fill: #f6f8fa; stroke: #d8dee4; }
svg .line { fill: none; stroke: #2563b0; stroke-width: 1.5; }
svg .bar { fill: #2563b0; }
svg .bar.fail { fill: #c23b3b; }
.empty { color: #77808a; font-style: italic; }
.meta { color: #55606b; font-size: .85rem; }
"""


def _section(title: str, body: str) -> str:
    return f"<h2>{html.escape(title)}</h2>\n{body}\n"


def _empty(note: str) -> str:
    return f'<p class="empty">{html.escape(note)}</p>'


def _render_summary(summary: Optional[dict]) -> str:
    if not summary:
        return _empty(
            "bench_summary.json not found — run the benchmark suite first "
            "(PYTHONPATH=src python -m pytest benchmarks -q)."
        )
    rows = [
        ("cases", summary.get("case_count", 0)),
        ("successes", summary.get("successes", 0)),
        ("median rounds", summary.get("median_rounds", 0)),
        ("median seconds", summary.get("median_seconds", 0.0)),
        ("total seconds", summary.get("total_seconds", 0.0)),
    ]
    cells = "".join(
        f'<tr><td class="name">{html.escape(str(k))}</td><td>{v}</td></tr>'
        for k, v in rows
    )
    out = f"<table><tbody>{cells}</tbody></table>"
    counters = summary.get("counters") or {}
    if counters:
        counter_rows = "".join(
            f'<tr><td class="name">{html.escape(str(name))}</td>'
            f"<td>{value:g}</td></tr>"
            for name, value in sorted(counters.items())
        )
        out += (
            "<details><summary>operational counters</summary>"
            f"<table><tbody>{counter_rows}</tbody></table></details>"
        )
    return out


def _stats_table(stats: dict) -> str:
    """One counters dict as a small two-column table (rates as %)."""
    rows = []
    for name, value in sorted(stats.items()):
        if isinstance(value, float) and name.endswith("_rate"):
            rendered = f"{value * 100:.1f}%"
        elif isinstance(value, float):
            rendered = f"{value:g}"
        else:
            rendered = str(value)
        rows.append(
            f'<tr><td class="name">{html.escape(str(name))}</td>'
            f"<td>{html.escape(rendered)}</td></tr>"
        )
    return f'<table><tbody>{"".join(rows)}</tbody></table>'


def _render_runner_stats(summary: Optional[dict]) -> str:
    """The runner sections and the latency section of the summary.

    A runner section only exists when its knob moved a counter (see
    ``repro.obs.metrics.runner_stats``), so each block renders
    conditionally.
    """
    summary = summary or {}
    blocks: list[str] = []
    for section in metrics.RUNNER_SECTIONS:
        stats = summary.get(section)
        if isinstance(stats, dict) and stats:
            blocks.append(
                f"<h3>{html.escape(section)}</h3>" + _stats_table(stats)
            )
    latency = summary.get("latency")
    if isinstance(latency, dict) and latency:
        rows = []
        for name, quantiles in sorted(latency.items()):
            if not isinstance(quantiles, dict):
                continue
            rows.append(
                f'<tr><td class="name">{html.escape(str(name))}</td>'
                f"<td>{quantiles.get('count', 0)}</td>"
                + "".join(
                    f"<td>{float(quantiles.get(q, 0.0)):.4f}</td>"
                    for q in ("mean", "p50", "p90", "p99")
                )
                + "</tr>"
            )
        blocks.append(
            "<h3>Latency histograms</h3>"
            '<table><thead><tr><th class="name">metric</th><th>count</th>'
            "<th>mean</th><th>p50</th><th>p90</th><th>p99</th></tr></thead>"
            f'<tbody>{"".join(rows)}</tbody></table>'
        )
    if not blocks:
        return _empty(
            "no runner-stats or latency sections in bench_summary.json — "
            "produced by campaigns run with those runner knobs on."
        )
    return "".join(blocks)


def _render_coverage(
    summary: Optional[dict], systems: dict[str, str]
) -> str:
    coverage = (summary or {}).get("coverage") or {}
    if not coverage:
        return _empty(
            "no coverage accounting in bench_summary.json — produced by "
            "campaigns run with coverage tracking on (the default)."
        )
    strategies = list(coverage)
    cases: list[str] = []
    for per_case in coverage.values():
        for case_id in per_case:
            if case_id not in cases:
                cases.append(case_id)
    cases.sort(key=lambda c: (len(c), c))
    header = "".join(
        f"<th>{html.escape(strategy)}</th>" for strategy in strategies
    )
    rows = []
    for case_id in cases:
        system = systems.get(case_id, "")
        label = f"{case_id} ({system})" if system else case_id
        cells = []
        for strategy in strategies:
            cell = coverage[strategy].get(case_id)
            cells.append(_coverage_cell(cell) if cell else "<td>—</td>")
        rows.append(
            f'<tr><td class="name">{html.escape(label)}</td>{"".join(cells)}</tr>'
        )
    legend = (
        '<p class="meta">Cell = planned% / fired% of the enumerated fault '
        "space; greener cells touched less of the space before stopping.</p>"
    )
    return (
        legend
        + f'<table><thead><tr><th class="name">case</th>{header}</tr></thead>'
        + f'<tbody>{"".join(rows)}</tbody></table>'
        + _render_coverage_curves(coverage)
    )


def _render_coverage_curves(coverage: dict) -> str:
    """Per-case planned-coverage-vs-round curves for the ANDURIL runs."""
    anduril = coverage.get("anduril") or {}
    charts = []
    for case_id, cell in anduril.items():
        rounds = cell.get("rounds") or []
        space = float(cell.get("space", 0)) or 1.0
        points = [
            (float(entry[0]), float(entry[2]) / space)
            for entry in rounds
            if isinstance(entry, list) and len(entry) >= 5
        ]
        if len(points) < 2:
            continue
        charts.append(
            f"<figure><figcaption>{html.escape(case_id)} — planned fraction "
            f"by round</figcaption>"
            f"{_polyline_svg(points, label=case_id)}</figure>"
        )
    if not charts:
        return ""
    return "<h3>Coverage curves</h3>" + "".join(charts)


def _render_ledger(entries: list[dict]) -> str:
    if not entries:
        return _empty(
            "ledger.jsonl not found or empty — reproduce/compare/bench runs "
            "append to it."
        )
    by_cell: dict[tuple[str, str], list[dict]] = {}
    for entry in entries:
        key = (str(entry.get("case_id", "")), str(entry.get("strategy", "")))
        by_cell.setdefault(key, []).append(entry)
    rows = []
    for (case_id, strategy), cell_entries in sorted(
        by_cell.items(), key=lambda item: (len(item[0][0]), item[0])
    ):
        seconds = [float(e.get("seconds", 0.0)) for e in cell_entries]
        flags = [bool(e.get("success")) for e in cell_entries]
        latest = cell_entries[-1]
        rows.append(
            f'<tr><td class="name">{html.escape(case_id)}</td>'
            f'<td class="name">{html.escape(strategy)}</td>'
            f"<td>{len(cell_entries)}</td>"
            f"<td>{sum(flags)}/{len(flags)}</td>"
            f"<td>{latest.get('rounds', 0)}</td>"
            f"<td>{float(latest.get('seconds', 0.0)):.3f}</td>"
            f'<td class="name">{html.escape(str(latest.get("git_sha", "")))}</td>'
            f'<td class="name">{_sparkline_svg(seconds, flags)}</td></tr>'
        )
    return (
        f'<p class="meta">{len(entries)} entries across {len(by_cell)} '
        "(case, strategy) cells; sparkline bars are per-run wall seconds, "
        "red bars failed.</p>"
        '<table><thead><tr><th class="name">case</th>'
        '<th class="name">strategy</th><th>runs</th><th>successes</th>'
        "<th>last rounds</th><th>last seconds</th>"
        '<th class="name">last sha</th><th class="name">trend</th>'
        f'</tr></thead><tbody>{"".join(rows)}</tbody></table>'
    )


def _render_trajectories(trajectories: dict[str, list[tuple[int, int]]]) -> str:
    if not trajectories:
        return _empty(
            "no trace_*.json exports found — produce one with "
            "PYTHONPATH=src python -m repro trace CASE --out "
            "benchmarks/out/trace_CASE.json."
        )
    charts = []
    for name, points in trajectories.items():
        floats = [(float(x), float(-y)) for x, y in points]  # rank 1 on top
        charts.append(
            f"<figure><figcaption>{html.escape(name)} — ground-truth site "
            f"rank by round (rank {min(y for _, y in points)}–"
            f"{max(y for _, y in points)})</figcaption>"
            f"{_polyline_svg(floats, label=name)}</figure>"
        )
    return "".join(charts)


def _render_tables(tables: list[tuple[str, str]]) -> str:
    if not tables:
        return _empty("no table artifacts under benchmarks/out/.")
    sections = []
    for title, text in tables:
        sections.append(
            f"<details open><summary>{html.escape(title)}</summary>"
            f"<pre>{html.escape(text)}</pre></details>"
        )
    return "".join(sections)


def render_report(inputs: ReportInputs) -> str:
    """The full report as one self-contained HTML document string."""
    body = [
        "<h1>repro campaign report</h1>",
        f'<p class="meta">artifacts: {html.escape(inputs.out_dir)} · '
        f"commit {html.escape(ledger_mod.git_sha())}</p>",
        _section("Campaign summary", _render_summary(inputs.summary)),
        _section(
            "Fault-space coverage",
            _render_coverage(inputs.summary, inputs.systems),
        ),
        _section("Runner stats", _render_runner_stats(inputs.summary)),
        _section("Run ledger trends", _render_ledger(inputs.ledger_entries)),
        _section(
            "Rank trajectories (Figure 6)",
            _render_trajectories(inputs.trajectories),
        ),
        _section("Tables", _render_tables(inputs.tables)),
    ]
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        "<title>repro campaign report</title>"
        f"<style>{_STYLE}</style></head><body>\n"
        + "\n".join(body)
        + "\n</body></html>\n"
    )


def write_report(
    path: Optional[str] = None,
    out_dir: Optional[str] = None,
    systems: Optional[dict[str, str]] = None,
) -> str:
    """Render and write the report; returns the path written."""
    if path is None:
        path = os.path.join(_default_out_dir(), "report.html")
    inputs = collect_report_inputs(out_dir=out_dir, systems=systems)
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_report(inputs))
    return path
