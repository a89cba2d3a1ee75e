"""Criterion-driven refinement/coarsening (the *Refine & Coarsen* routine).

A refinement *criterion* is a callable ``(loc, payload) -> Action`` — this
is precisely the "feature function" the paper's feature-directed sampling
pre-executes (§3.3), so the same object is shared between the solver and
PM-octree's layout policy.

Batched twins
-------------
A criterion may carry an optional ``batch`` attribute::

    criterion.batch(locs, payloads) -> int array of Action values

``locs`` is an int64 array of leaf codes, ``payloads`` the matching
``(n, 4)`` float64 rows, and entry ``i`` of the result must equal
``criterion(locs[i], payloads[i]).value``.  When the criterion has one and
the tree has a ``batch_read_payloads`` reader, :class:`RefinementEngine`
reads every leaf in one metered call (charging exactly what per-leaf
``get_payload`` calls charge) and evaluates the criterion once per sweep
instead of once per leaf.  Otherwise the per-leaf loop runs.  Either way
the apply phase is the same: refinements in leaf order, then coarsening
votes.  PM-octree feature functions (``(loc, payload) -> bool``) follow
the same protocol with a boolean ``batch`` result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from repro.octree import morton
from repro.octree.balance import balance_tree
from repro.octree.store import AdaptiveTree, Payload


class Action(Enum):
    """What the criterion wants done with a leaf."""

    KEEP = 0
    REFINE = 1
    COARSEN = 2


Criterion = Callable[[int, Payload], Action]

_REFINE = Action.REFINE.value
_COARSEN = Action.COARSEN.value


@dataclass
class RefinementResult:
    """Counts from one adaptation sweep."""

    refined: int = 0
    coarsened: int = 0
    balance_refined: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.refined or self.coarsened or self.balance_refined)


class RefinementEngine:
    """Applies a criterion over all leaves, then restores 2:1 balance.

    ``min_level``/``max_level`` clamp the adaptation; coarsening happens only
    when *all* siblings vote COARSEN (the standard conservative rule, which
    Gerris also uses).
    """

    def __init__(self, criterion: Criterion, min_level: int = 0,
                 max_level: int = 30, balance: bool = True):
        if min_level > max_level:
            raise ValueError("min_level must not exceed max_level")
        self.criterion = criterion
        self.min_level = min_level
        self.max_level = max_level
        self.balance = balance

    def adapt(self, tree: AdaptiveTree, rounds: int = 1) -> RefinementResult:
        """Run up to ``rounds`` sweeps; stops early once nothing changes."""
        total = RefinementResult()
        for _ in range(rounds):
            res = self._sweep(tree)
            total.refined += res.refined
            total.coarsened += res.coarsened
            total.balance_refined += res.balance_refined
            if not res.changed:
                break
        return total

    def _actions(self, tree: AdaptiveTree, leaves) -> list:
        """The criterion's Action value for every leaf, in leaf order."""
        batch = getattr(self.criterion, "batch", None)
        if batch is not None and hasattr(tree, "batch_read_payloads"):
            payloads = tree.batch_read_payloads(leaves)
            locs = np.asarray(leaves, dtype=np.int64)
            return batch(locs, payloads).tolist()
        return [self.criterion(loc, tree.get_payload(loc)).value
                for loc in leaves]

    def _sweep(self, tree: AdaptiveTree) -> RefinementResult:
        dim = tree.dim
        res = RefinementResult()
        to_refine = []
        votes = {}  # parent loc -> #children voting COARSEN
        leaves = list(tree.leaves())
        for loc, action in zip(leaves, self._actions(tree, leaves)):
            if action == _REFINE:
                if morton.level_of(loc, dim) < self.max_level:
                    to_refine.append(loc)
            elif action == _COARSEN \
                    and morton.level_of(loc, dim) > self.min_level:
                parent = morton.parent_of(loc, dim)
                votes[parent] = votes.get(parent, 0) + 1
        for loc in to_refine:
            if tree.is_leaf(loc):  # may have been consumed by coarsening
                tree.refine(loc)
                res.refined += 1
        fanout = morton.fanout(dim)
        for parent, n in votes.items():
            # Re-check children are all still leaves (none refined above).
            if n == fanout and tree.exists(parent) \
                    and not tree.is_leaf(parent) \
                    and all(tree.is_leaf(c)
                            for c in morton.children_of(parent, dim)):
                tree.coarsen(parent)
                res.coarsened += 1
        if self.balance and (res.refined or res.coarsened):
            res.balance_refined = balance_tree(
                tree, max_level=self.max_level,
            )
        return res


def refine_where(tree: AdaptiveTree, predicate: Callable[[int], bool],
                 max_level: int) -> int:
    """Refine every leaf satisfying ``predicate`` until none qualify below
    ``max_level``; returns the number of refinements."""
    n = 0
    frontier = [loc for loc in tree.leaves() if predicate(loc)]
    while frontier:
        nxt = []
        for loc in frontier:
            if not tree.is_leaf(loc):
                continue
            if morton.level_of(loc, tree.dim) >= max_level:
                continue
            for child in tree.refine(loc):
                if predicate(child):
                    nxt.append(child)
            n += 1
        frontier = nxt
    return n
