"""Service drift: one list of verbs, one client surface.

Same idea as ``test_api_drift.py`` and ``test_metrics_catalog.py``, aimed
at the front door.  The verb table in :mod:`repro.service.server` is the
source; the command table in docs/SERVICE.md and the verb list in the
server's module docstring are copies a human keeps, so each must name
exactly the table's usage lines.  And :class:`DirectoryClient` /
:class:`Pipeline` are *derived* from their async originals: every public
coroutine must have come across with its signature intact.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from repro.core.interface import Directory
from repro.service import server
from repro.service.client import (
    AsyncDirectoryClient,
    AsyncPipeline,
    DirectoryClient,
    Pipeline,
)

_SERVICE_MD = Path(__file__).resolve().parents[2] / "docs" / "SERVICE.md"


def _table_usage_lines() -> set[str]:
    return {
        form.strip()
        for row in server.DirectoryService._VERBS.values()
        for form in row.usage.split("|")
    }


def _documented_commands() -> set[str]:
    """First column of the ``| command | reply | error |`` table."""
    lines = iter(_SERVICE_MD.read_text().splitlines())
    for line in lines:
        if line.startswith("| command |"):
            break
    next(lines)  # the |---|---|---| rule
    commands = set()
    for line in lines:
        if not line.startswith("|"):
            break
        commands.add(line.split("|")[1].strip().strip("`"))
    return commands


def _docstring_commands() -> set[str]:
    """The ``    VERB args   -> reply`` block of the module docstring."""
    return set(re.findall(r"^    (\S.*?)\s+->", server.__doc__, re.MULTILINE))


class TestVerbListDrift:
    def test_table_is_not_empty(self):
        # An empty extraction would make the equalities below vacuous.
        assert len(_table_usage_lines()) >= 17

    def test_service_md_command_table_matches_the_verb_table(self):
        assert _documented_commands() == _table_usage_lines()

    def test_module_docstring_matches_the_verb_table(self):
        assert _docstring_commands() == _table_usage_lines()

    def test_arity_comes_from_the_usage_line(self):
        arity = {
            verb: (row.fewest, row.most)
            for verb, row in server.DirectoryService._VERBS.items()
        }
        assert arity["PING"] == (0, 0)
        assert arity["SET"] == (2, 2)
        assert arity["STATS"] == (0, 1)  # [window] is optional
        assert arity["REJOIN"] == (1, 1)  # [s<i>/]replica is one word
        assert arity["RESHARD"] == (1, 2)  # STATUS | SPLIT boundary


def _public_coroutines(cls: type) -> dict[str, object]:
    return {
        name: member
        for name, member in vars(cls).items()
        if inspect.iscoroutinefunction(member) and not name.startswith("_")
    }


class TestBlockingClientDrift:
    def test_introspection_sees_the_surface(self):
        names = set(_public_coroutines(AsyncDirectoryClient))
        assert {"lookup", "insert", "update", "delete", "size", "get",
                "set", "remove", "stats", "reshard", "close"} <= names
        assert "connect" not in names  # a classmethod: the constructor's job

    @pytest.mark.parametrize(
        "name", sorted(_public_coroutines(AsyncDirectoryClient))
    )
    def test_every_async_method_has_a_blocking_face(self, name):
        blocking = getattr(DirectoryClient, name)
        assert not inspect.iscoroutinefunction(blocking)
        assert inspect.signature(blocking) == inspect.signature(
            getattr(AsyncDirectoryClient, name)
        )

    def test_pipeline_keeps_the_async_pipeline_surface(self):
        for name, member in vars(AsyncPipeline).items():
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            assert inspect.signature(getattr(Pipeline, name)) == (
                inspect.signature(member)
            ), name
        assert not inspect.iscoroutinefunction(Pipeline.flush)

    def test_blocking_client_is_still_a_directory(self):
        # Checked on an instance that never connected: the protocol
        # check only looks the methods up.
        client = object.__new__(DirectoryClient)
        assert isinstance(client, Directory)
        for name in ("last_trace", "epoch", "redirects"):
            assert isinstance(getattr(DirectoryClient, name), property)
