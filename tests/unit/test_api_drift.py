"""Docs drift: every import the user guides show must actually work.

docs/API.md, docs/SERVICE.md, and docs/OBSERVABILITY.md are the
contracts users copy-paste from.  This test extracts every ``import
repro...`` / ``from repro... import ...`` statement out of their fenced
python blocks and executes them, so renaming or un-exporting a symbol
fails CI instead of silently breaking the docs.  It also pins
``repro.__all__`` to reality in both directions.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro

_DOCS = Path(__file__).resolve().parents[2] / "docs"
GUIDES = [_DOCS / "API.md", _DOCS / "SERVICE.md", _DOCS / "OBSERVABILITY.md"]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
# A repro import statement, including parenthesized multiline forms.
_IMPORT = re.compile(
    r"^(?:from\s+repro[\w.]*\s+import\s+(?:\([^)]*\)|[^\n(]+)"
    r"|import\s+repro[\w.]*)",
    re.MULTILINE | re.DOTALL,
)


def _doc_import_statements() -> list[tuple[str, str]]:
    statements: list[tuple[str, str]] = []
    for guide in GUIDES:
        for block in _FENCE.findall(guide.read_text()):
            # Strip comments first: they may contain parentheses that
            # would derail the parenthesized-import match.
            stripped = "\n".join(
                line.split("#")[0].rstrip() for line in block.splitlines()
            )
            statements.extend(
                (guide.name, m.group(0)) for m in _IMPORT.finditer(stripped)
            )
    return statements


STATEMENTS = _doc_import_statements()


@pytest.mark.parametrize("guide", GUIDES, ids=[g.name for g in GUIDES])
def test_guide_has_import_examples(guide):
    # The guides lean on imports throughout; an empty extraction means
    # the regex (or the doc) broke, not that there is nothing to check.
    count = sum(1 for name, _ in STATEMENTS if name == guide.name)
    assert count >= (10 if guide.name == "API.md" else 2)


@pytest.mark.parametrize(
    "guide,statement",
    STATEMENTS,
    ids=[f"{g}: {s.replace(chr(10), ' ')[:60]}" for g, s in STATEMENTS],
)
def test_documented_import_works(guide, statement):
    exec(statement, {})


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_key_surface_is_exported():
    for name in (
        "Directory",
        "ClusterSpec",
        "ShardedDirectory",
        "ShardMap",
        "RangeShardMap",
        "HashShardMap",
        "ShardAuditor",
        "WaveOutcome",
        "Transport",
        "SimTransport",
        "resolve_transport",
        "register_directory",
        "directory_factories",
    ):
        assert name in repro.__all__, name


# -- one place decides how a round fans out ------------------------------------


def _attribute_reads(paths, attr: str) -> list[str]:
    import ast

    reads = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == attr
                and isinstance(node.ctx, ast.Load)
            ):
                reads.append(f"{path.name}:{node.lineno}")
    return reads


def test_fanout_is_decided_where_a_round_is_issued():
    """A quorum round goes through ``DirectorySuite._round`` and a 2PC
    round through ``TwoPhaseCoordinator._phase``; those read the mode.
    A new ``if self.fanout == ...`` beside a call site is the same round
    written twice — route it through ``_round`` instead of raising these.
    """
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    # _round, the hedged read in _suite_lookup, _real_neighbor's refill,
    # and the probe/install step size in _coalesce_around.
    fanout = _attribute_reads(sorted((src / "core").glob("*.py")), "fanout")
    assert len(fanout) <= 4, fanout
    parallel = _attribute_reads([src / "txn" / "twopc.py"], "parallel")
    assert len(parallel) <= 1, parallel
