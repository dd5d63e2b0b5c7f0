"""Static fault-handling defect detector over a :class:`SystemModel`.

The causal model already knows every try/except, env-boundary call, and
exception-flow edge of a system; this pass judges the *handlers*: a
rule catalog (see :mod:`repro.analysis.rules`) scans the model plus the
interprocedural :class:`ExceptionAnalysis` and emits structured findings
(rule id, severity, file:line, implicated fault sites, message).

The ``python -m repro lint`` CLI renders a report in text or JSON.  The
search does not read findings: ANDURIL's site priority is feedback and
static distance alone (§5.2).
"""

from __future__ import annotations

import dataclasses
import json
import time
import warnings
from typing import Iterable, Optional

from .exceptions import ExceptionAnalysis
from .rules import Finding, LintContext, registered_rules, severity_rank
from .system_model import SystemModel, analyze_package


@dataclasses.dataclass
class LintReport:
    """All findings of one lint run, with rendering helpers."""

    package: str
    rule_ids: tuple[str, ...]
    findings: list[Finding]
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.findings)

    def by_rule(self) -> dict[str, list[Finding]]:
        """Findings grouped by rule id, in the report's rule order.

        A finding whose rule id is not in ``rule_ids`` — a report built
        from persisted findings of a retired rule, or hand-constructed
        in tests — lands in an explicit ``"unknown"`` bucket (with one
        warning naming the stray ids) instead of silently growing the
        keyspace out of order.
        """
        grouped: dict[str, list[Finding]] = {rule_id: [] for rule_id in self.rule_ids}
        unknown: list[Finding] = []
        for finding in self.findings:
            if finding.rule in grouped:
                grouped[finding.rule].append(finding)
            else:
                unknown.append(finding)
        if unknown:
            stray = sorted({finding.rule for finding in unknown})
            warnings.warn(
                f"{len(unknown)} finding(s) from unregistered rule(s) "
                f"{', '.join(stray)} grouped under 'unknown'",
                RuntimeWarning,
                stacklevel=2,
            )
            grouped["unknown"] = unknown
        return grouped

    def by_severity(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def min_severity(self, severity: str) -> "LintReport":
        floor = severity_rank(severity)
        return LintReport(
            package=self.package,
            rule_ids=self.rule_ids,
            findings=[
                finding
                for finding in self.findings
                if severity_rank(finding.severity) >= floor
            ],
            elapsed_seconds=self.elapsed_seconds,
        )

    # ---------------------------------------------------------------- renderers

    def to_text(self) -> str:
        counts = self.by_severity()
        summary = ", ".join(
            f"{counts[severity]} {severity}"
            for severity in ("error", "warning", "info")
            if severity in counts
        )
        lines = [
            f"{self.package}: {len(self.findings)} findings"
            + (f" ({summary})" if summary else "")
        ]
        for finding in self.findings:
            lines.append(
                f"{finding.severity:<7} {finding.rule:<20} "
                f"{finding.location} ({finding.function})"
            )
            lines.append(f"        {finding.message}")
            if finding.site_ids:
                lines.append(
                    "        sites: " + ", ".join(finding.site_ids)
                )
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(
            {
                "package": self.package,
                "rules": list(self.rule_ids),
                "finding_count": len(self.findings),
                "severity_counts": self.by_severity(),
                "findings": [finding.to_dict() for finding in self.findings],
            },
            indent=indent,
        )


def _finding_order(finding: Finding) -> tuple:
    return (
        -severity_rank(finding.severity),
        finding.file,
        finding.line,
        finding.rule,
    )


def run_lint(
    model: SystemModel,
    analysis: Optional[ExceptionAnalysis] = None,
    rules: Optional[Iterable[str]] = None,
    package: str = "",
) -> LintReport:
    """Run the rule catalog (or a subset) over an analyzed system."""
    started = time.perf_counter()
    catalog = registered_rules()
    if rules is None:
        selected = sorted(catalog)
    else:
        selected = []
        for rule_id in rules:
            if rule_id not in catalog:
                raise ValueError(
                    f"unknown lint rule {rule_id!r}; "
                    f"known: {', '.join(sorted(catalog))}"
                )
            selected.append(rule_id)
    context = LintContext(model, analysis)
    findings: list[Finding] = []
    for rule_id in selected:
        findings.extend(catalog[rule_id].check(context))
    findings.sort(key=_finding_order)
    return LintReport(
        package=package,
        rule_ids=tuple(selected),
        findings=findings,
        elapsed_seconds=time.perf_counter() - started,
    )


def lint_package(
    package_name: str, rules: Optional[Iterable[str]] = None
) -> LintReport:
    """Analyze an importable package and lint it in one step."""
    model = analyze_package(package_name)
    return run_lint(model, rules=rules, package=package_name)
