"""Routing equivalence: the one :class:`ShardMap` routes as the three
map classes it replaced did.

``_Range``, ``_Hash`` and ``_Versioned`` below are frozen copies of the
range map, hash map and epoch-stamping wrapper that ``repro.shard.maps``
offered before they became one type, cut down to the surface a split
onto a new shard uses; ``_reference_require_epoch`` is the
``ShardedDirectory.require_epoch`` of the same code.  Over float and
string keys, range maps of 1–8 shards put through random split
sequences, and hash maps of 1–8 buckets, every epoch must agree on:

* ``shard_of`` for every key drawn, the boundaries themselves included
  (that is where ``bisect_left`` and ``bisect_right`` part);
* ``describe()``;
* the delta's ``(source, target, low, high)``, and whether a split is
  refused at all;
* whether ``require_epoch`` raises, for every key against every epoch
  in the history and one the history never held.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from types import SimpleNamespace
from typing import Any

from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, StaleEpochError
from repro.shard import ShardedDirectory, ShardMap

# -- the frozen reference ----------------------------------------------------


class _Range:
    def __init__(self, boundaries: list[Any]) -> None:
        self.boundaries = list(boundaries)
        self.shards = len(self.boundaries) + 1

    def shard_of(self, key: Any) -> int:
        return bisect_right(self.boundaries, key)

    def describe(self) -> str:
        return f"range[{self.shards}]"


class _Hash:
    def __init__(self, shards: int) -> None:
        self.shards = shards

    def shard_of(self, key: Any) -> int:
        digest = hashlib.blake2b(
            repr(key).encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") % self.shards

    def describe(self) -> str:
        return f"hash[{self.shards}]"


class _Versioned:
    def __init__(
        self,
        base: Any = None,
        *,
        epoch: int = 0,
        delta: "tuple | None" = None,
        boundaries: "list[Any] | None" = None,
        owners: "list[int] | None" = None,
        shards: "int | None" = None,
    ) -> None:
        self.epoch = epoch
        self.delta = delta
        if boundaries is not None:
            self.boundaries = list(boundaries)
            self.owners = list(owners)
            self._base = None
            self.shards = shards
        elif isinstance(base, _Range):
            self.boundaries = list(base.boundaries)
            self.owners = list(range(len(self.boundaries) + 1))
            self._base = None
            self.shards = base.shards
        else:
            self.boundaries = None
            self.owners = None
            self._base = base
            self.shards = base.shards

    def shard_of(self, key: Any) -> int:
        if self.boundaries is None:
            return self._base.shard_of(key)
        return self.owners[bisect_right(self.boundaries, key)]

    def describe(self) -> str:
        if self.boundaries is not None:
            inner = f"range[{self.shards}]"
        else:
            inner = self._base.describe()
        if self.epoch == 0:
            return inner
        return f"{inner}@e{self.epoch}"

    def split(self, boundary: Any) -> "_Versioned":
        if self.boundaries is None:
            raise ConfigurationError("hash maps do not split")
        j = bisect_right(self.boundaries, boundary)
        if j > 0 and not self.boundaries[j - 1] < boundary:
            raise ConfigurationError("duplicate boundary")
        source = self.owners[j]
        target = self.shards
        high = self.boundaries[j] if j < len(self.boundaries) else None
        return _Versioned(
            boundaries=self.boundaries[:j] + [boundary] + self.boundaries[j:],
            owners=self.owners[: j + 1] + [target] + self.owners[j + 1 :],
            shards=max(self.shards, target + 1),
            epoch=self.epoch + 1,
            delta=(source, target, boundary, high),
        )


def _reference_require_epoch(history: dict, current: Any, key: Any, epoch: int) -> None:
    if epoch == current.epoch:
        return
    claimed = history.get(epoch)
    if claimed is None or claimed.shard_of(key) != current.shard_of(key):
        raise StaleEpochError(current.epoch, key=key)


# -- comparing the two -------------------------------------------------------


def _raises(fn: Any, *args: Any) -> bool:
    try:
        fn(*args)
    except (ConfigurationError, StaleEpochError):
        return True
    return False


def _split(shard_map: Any, boundary: Any) -> Any:
    """The successor, or None when the split is refused."""
    try:
        return shard_map.split(boundary)
    except ConfigurationError:
        return None


def _same_routing(new: ShardMap, old: _Versioned, keys: list[Any]) -> None:
    assert new.shards == old.shards
    assert new.describe() == old.describe()
    assert [new.shard_of(k) for k in keys] == [old.shard_of(k) for k in keys]
    if old.delta is None:
        assert new.delta is None
    else:
        delta = new.delta
        assert (delta.source, delta.target, delta.low, delta.high) == old.delta
        assert delta.epoch == new.epoch == old.epoch


def _same_epochs(
    new_history: dict, old_history: dict, keys: list[Any]
) -> None:
    """``require_epoch`` raises under the new maps exactly when it did."""
    new_current = new_history[max(new_history)]
    old_current = old_history[max(old_history)]
    directory = SimpleNamespace(
        shard_map=new_current, map_history=new_history
    )
    for epoch in [*old_history, max(old_history) + 1]:
        for key in keys:
            assert _raises(
                ShardedDirectory.require_epoch, directory, key, epoch
            ) == _raises(
                _reference_require_epoch, old_history, old_current, key, epoch
            )


floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
texts = st.text(alphabet="abcmnz", min_size=1, max_size=4)


@given(data=st.data())
def test_range_maps_route_as_before_through_every_split(data):
    values = data.draw(st.sampled_from([floats, texts]))
    shards = data.draw(st.integers(min_value=1, max_value=8))
    boundaries = sorted(
        data.draw(st.sets(values, min_size=shards - 1, max_size=shards - 1))
    )
    splits = data.draw(st.lists(values, max_size=6))
    # Keys on every boundary and split point, and keys off them.
    keys = sorted(
        {*boundaries, *splits, *data.draw(st.lists(values, max_size=12))}
    )
    new = ShardMap.range(boundaries)
    old = _Versioned(_Range(boundaries))
    new_history, old_history = {0: new}, {0: old}
    _same_routing(new, old, keys)
    for boundary in splits:
        new_next, old_next = _split(new, boundary), _split(old, boundary)
        assert (new_next is None) == (old_next is None)
        if new_next is None:
            continue
        new, old = new_next, old_next
        new_history[new.epoch] = new
        old_history[old.epoch] = old
        _same_routing(new, old, keys)
    _same_epochs(new_history, old_history, keys)


@given(
    shards=st.integers(min_value=1, max_value=8),
    keys=st.lists(st.one_of(floats, texts), min_size=1, max_size=24),
    boundary=st.one_of(floats, texts),
)
def test_hash_maps_route_as_before(shards, keys, boundary):
    new = ShardMap.hash(shards)
    old = _Versioned(_Hash(shards))
    _same_routing(new, old, keys)
    assert _raises(new.split, boundary) and _raises(old.split, boundary)
    _same_epochs({0: new}, {0: old}, keys)
