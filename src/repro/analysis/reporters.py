"""Finding reporters for ``repro lint``.

Two formats:

* **text** — one ``path:line:col: SEVERITY RULE message`` row per
  finding plus a summary line; for humans and CI logs.
* **json** — a stable machine-readable document (``version`` field,
  findings as objects, severity tallies, per-rule timing/suppression
  stats); for the CI gate and editor integrations.  Consumers should
  key on ``summary.errors`` for the pass/fail decision, mirroring the
  CLI's exit code.

JSON document history: version 1 had ``findings`` + ``summary``
(findings/errors/warnings/checked_files); version 2 adds
``summary.suppressed`` and the per-rule ``rule_stats`` map.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.core import Finding, Rule, iter_rule_info

#: Format names accepted by ``repro lint --format``.
FORMATS = ("text", "json")

#: Schema version of the JSON report document.
JSON_VERSION = 2


def summarize(findings: Sequence[Finding]) -> Dict[str, int]:
    """Severity tallies for a finding list."""
    errors = sum(1 for f in findings if f.severity == "error")
    return {
        "findings": len(findings),
        "errors": errors,
        "warnings": len(findings) - errors,
    }


def render_text(findings: Sequence[Finding],
                checked_files: Optional[int] = None,
                suppressed: Optional[int] = None) -> str:
    """Human-readable report, one row per finding plus a summary."""
    lines: List[str] = []
    for finding in findings:
        lines.append("%s: %s %s %s" % (
            finding.location(), finding.severity, finding.rule,
            finding.message,
        ))
    summary = summarize(findings)
    checked = "" if checked_files is None else (
        " in %d files" % checked_files
    )
    extra = " (%d suppressed)" % suppressed if suppressed else ""
    if summary["findings"]:
        lines.append("%d finding(s)%s: %d error(s), %d warning(s)%s" % (
            summary["findings"], checked, summary["errors"],
            summary["warnings"], extra,
        ))
    else:
        lines.append("no findings%s%s" % (checked, extra))
    return "\n".join(lines)


def render_json(findings: Sequence[Finding],
                checked_files: Optional[int] = None,
                suppressed: Optional[int] = None,
                rule_stats: Optional[Dict[str, object]] = None) -> str:
    """Machine-readable report (sorted keys, trailing-newline-free)."""
    document: Dict[str, object] = {
        "version": JSON_VERSION,
        "findings": [finding.as_dict() for finding in findings],
        "summary": summarize(findings),
    }
    summary = document["summary"]
    if checked_files is not None:
        summary["checked_files"] = checked_files
    if suppressed is not None:
        summary["suppressed"] = suppressed
    if rule_stats is not None:
        document["rule_stats"] = rule_stats
    return json.dumps(document, indent=2, sort_keys=True)


def render(findings: Sequence[Finding], fmt: str,
           checked_files: Optional[int] = None,
           suppressed: Optional[int] = None,
           rule_stats: Optional[Dict[str, object]] = None) -> str:
    """Dispatch on ``fmt`` (one of :data:`FORMATS`)."""
    if fmt == "json":
        return render_json(findings, checked_files,
                           suppressed=suppressed, rule_stats=rule_stats)
    if fmt == "text":
        return render_text(findings, checked_files, suppressed=suppressed)
    raise ValueError("unknown format %r (expected one of %s)"
                     % (fmt, ", ".join(FORMATS)))


def render_rule_list(rules: Iterable[Rule], fmt: str) -> str:
    """``--list-rules`` output in either format.

    Project rules (whole-set cross-checks like the COV family) are
    marked: a ``kind`` column in text, a ``kind`` field in JSON.
    """
    rows = list(iter_rule_info(rules))
    if fmt == "json":
        return json.dumps({"version": JSON_VERSION, "rules": rows},
                          indent=2, sort_keys=True)
    lines = ["%-8s %-8s %-8s %s" % (row["id"], row["severity"],
                                    row["kind"], row["description"])
             for row in rows]
    return "\n".join(lines)
