"""Checked-in baseline of reviewed, deliberately-allowed findings.

A baseline entry whitelists every finding matching its fingerprint —
``(rule, path, symbol, pattern)`` — with **no line numbers**, so
unrelated edits to a file never invalidate it.  Every entry must carry a
non-empty ``comment`` explaining why the site is allowed: the baseline
is a reviewed whitelist, not a landfill.  Entries that no longer match
anything are reported as *stale* so the whitelist shrinks as code
improves.
"""

import json

from repro.errors import AnalysisError

#: Schema identifier; bump on incompatible layout changes.
SCHEMA = "repro-lint-baseline/1"

_REQUIRED = ("rule", "path", "pattern", "comment")


class BaselineEntry:
    """One reviewed whitelist entry."""

    __slots__ = ("rule", "path", "symbol", "pattern", "comment",
                 "snippet_hash")

    def __init__(self, rule, path, pattern, comment, symbol=None,
                 snippet_hash=None):
        if not comment or not str(comment).strip():
            raise AnalysisError(
                "baseline entry %s %s %s has no comment — every "
                "whitelisted finding must explain why it is allowed"
                % (rule, path, pattern)
            )
        self.rule = rule
        self.path = path
        self.symbol = symbol
        self.pattern = pattern
        self.comment = comment
        #: Optional normalized-snippet hash: when present, the entry
        #: only covers a finding whose anchored source text still
        #: hashes the same — editing the whitelisted line re-surfaces
        #: the finding for re-review.
        self.snippet_hash = snippet_hash

    def matches(self, finding):
        return (
            finding.rule == self.rule
            and finding.path == self.path
            and finding.pattern == self.pattern
            and (self.symbol is None or finding.symbol == self.symbol)
            and (self.snippet_hash is None
                 or finding.snippet_hash == self.snippet_hash)
        )

    def to_dict(self):
        entry = {
            "rule": self.rule,
            "path": self.path,
            "pattern": self.pattern,
            "comment": self.comment,
        }
        if self.symbol is not None:
            entry["symbol"] = self.symbol
        if self.snippet_hash is not None:
            entry["snippet_hash"] = self.snippet_hash
        return entry

    def describe(self):
        where = self.path if self.symbol is None \
            else "%s [%s]" % (self.path, self.symbol)
        return "%s %s %s" % (self.rule, where, self.pattern)


def load_baseline(path):
    """Parse and validate a baseline file into entries."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or not isinstance(
        document.get("entries", []), list
    ):
        raise AnalysisError(
            "baseline %s must be a JSON object with an 'entries' list"
            % path
        )
    if document.get("schema") != SCHEMA:
        raise AnalysisError(
            "unsupported baseline schema %r in %s (expected %r)"
            % (document.get("schema"), path, SCHEMA)
        )
    entries = []
    for raw in document.get("entries", []):
        if not isinstance(raw, dict):
            raise AnalysisError(
                "baseline %s: entry %r must be an object" % (path, raw)
            )
        missing = [key for key in _REQUIRED if not raw.get(key)]
        if missing:
            raise AnalysisError(
                "baseline entry %r in %s is missing %s"
                % (raw, path, ", ".join(missing))
            )
        entries.append(BaselineEntry(
            raw["rule"], raw["path"], raw["pattern"], raw["comment"],
            symbol=raw.get("symbol"),
            snippet_hash=raw.get("snippet_hash"),
        ))
    return entries


def apply_baseline(findings, entries):
    """Split findings into (kept, baselined) and spot stale entries.

    Returns ``(kept, baselined_count, stale_entries)``; one entry may
    cover several findings (e.g. two wall-clock reads bracketing the
    same timed region).
    """
    kept = []
    baselined = 0
    used = [False] * len(entries)
    for finding in findings:
        matched = False
        for index, entry in enumerate(entries):
            if entry.matches(finding):
                used[index] = True
                matched = True
        if matched:
            baselined += 1
        else:
            kept.append(finding)
    stale = [entry for index, entry in enumerate(entries) if not used[index]]
    return kept, baselined, stale


def write_baseline(findings, path,
                   comment="TODO(review): explain why this site is allowed"):
    """Write a baseline covering *findings* (one entry per fingerprint).

    Entries get a placeholder comment; the workflow is to review each
    one and replace the placeholder with the actual justification before
    checking the file in.
    """
    seen = {}
    for finding in findings:
        key = finding.fingerprint()
        if key not in seen:
            seen[key] = BaselineEntry(
                finding.rule, finding.path, finding.pattern, comment,
                symbol=finding.symbol,
                snippet_hash=finding.snippet_hash,
            )
    document = {
        "schema": SCHEMA,
        "entries": [entry.to_dict() for entry in seen.values()],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(seen)


def prune_baseline(path, stale_entries):
    """Rewrite the baseline at *path* without *stale_entries*.

    Comments and field layout of the surviving entries are preserved
    (the file is re-read and re-emitted entry for entry).  Returns the
    list of dropped entries.
    """
    entries = load_baseline(path)
    stale_keys = {
        (entry.rule, entry.path, entry.symbol, entry.pattern,
         entry.snippet_hash)
        for entry in stale_entries
    }
    kept, dropped = [], []
    for entry in entries:
        key = (entry.rule, entry.path, entry.symbol, entry.pattern,
               entry.snippet_hash)
        (dropped if key in stale_keys else kept).append(entry)
    document = {
        "schema": SCHEMA,
        "entries": [entry.to_dict() for entry in kept],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return dropped
