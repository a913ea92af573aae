"""Minimal behaviour-tree interpreter: node algebra and tick semantics.

Content-free: nothing in here knows about fetch policies. Trees are built from
Sequence / Fallback composites, a Repeat decorator and Condition / Action
leaves, each carrying a stable name that shows up verbatim in decision traces.
A tick takes one state object and hands it, unchanged, to every leaf it
reaches; what that state is belongs to the caller.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable

from .errors import ConfigError, EvaluationError


class NodeStatus(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    RUNNING = "running"

    # Agrees with Enum's identity equality and skips its Python-level hash.
    __hash__ = object.__hash__


SUCCESS = NodeStatus.SUCCESS
FAILURE = NodeStatus.FAILURE
RUNNING = NodeStatus.RUNNING


class TickListener:
    """Callbacks invoked as the tick walks the tree; defaults are no-ops."""

    def enter(self, node: "Node") -> None:  # pragma: no cover - trivial
        pass

    def exit(self, node: "Node", status: NodeStatus) -> None:  # pragma: no cover
        pass


class Node:
    """Base class; every node has a stable name used for tracing."""

    def __init__(self, name: str):
        if not name:
            raise ConfigError("node name must be non-empty")
        self.name = name

    def children(self) -> tuple["Node", ...]:
        return ()

    def tick(self, state: Any, listener: TickListener | None = None) -> NodeStatus:
        raise NotImplementedError


def _walk(goes_on: NodeStatus):
    """The tick of a composite: ticks its children left to right while each
    returns `goes_on`, and returns the last status it got. Each class builds
    its own from this one definition, so that it holds tick in its own
    __dict__ and can be wrapped per class."""

    def tick(self, state: Any, listener: TickListener | None = None) -> NodeStatus:
        if listener:
            listener.enter(self)
        for child in self._children:
            status = child.tick(state, listener)
            if status is not goes_on:
                break
        if listener:
            listener.exit(self, status)
        return status

    return tick


class _Composite(Node):
    """A node with children, ticked by the tick its class builds with _walk."""

    def __init__(self, name: str, children: Iterable[Node]):
        super().__init__(name)
        self._children = tuple(children)
        if not self._children:
            raise ConfigError(f"{type(self).__name__.lower()} {name!r} has no children")

    def children(self) -> tuple[Node, ...]:
        return self._children


class Sequence(_Composite):
    """Ticks children left to right; fails at the first failing child."""

    tick = _walk(SUCCESS)


class Fallback(_Composite):
    """Ticks children left to right; succeeds at the first succeeding child."""

    tick = _walk(FAILURE)


class Repeat(_Composite):
    """Decorator meaning "re-evaluate per item": the caller drives the
    repetition by ticking once per request; each tick runs the child once."""

    tick = _walk(SUCCESS)

    def __init__(self, name: str, child: Node):
        super().__init__(name, (child,))


class Condition(Node):
    """Leaf evaluating a predicate of the tick's state."""

    def __init__(self, name: str, predicate: Callable[[Any], bool]):
        super().__init__(name)
        self.predicate = predicate

    def tick(self, state: Any, listener: TickListener | None = None) -> NodeStatus:
        if listener:
            listener.enter(self)
        status = SUCCESS if self.predicate(state) else FAILURE
        if listener:
            listener.exit(self, status)
        return status


class Action(Node):
    """Leaf executing an effect on the tick's state; returns its status."""

    def __init__(self, name: str, effect: Callable[[Any], NodeStatus]):
        super().__init__(name)
        self.effect = effect

    def tick(self, state: Any, listener: TickListener | None = None) -> NodeStatus:
        if listener:
            listener.enter(self)
        status = self.effect(state)
        if not isinstance(status, NodeStatus):
            raise EvaluationError(f"action {self.name!r} returned {status!r}, expected a NodeStatus")
        if listener:
            listener.exit(self, status)
        return status


def validate_tree(root: Node) -> None:
    """Reject trees that are not finite, acyclic and uniquely named.

    Raises ConfigError on the first problem found.
    """
    seen_ids: set[int] = set()
    names: set[str] = set()
    stack: set[int] = set()

    def walk(node: Node) -> None:
        nid = id(node)
        if nid in stack:
            raise ConfigError(f"cycle through node {node.name!r}")
        if nid in seen_ids:
            raise ConfigError(f"node {node.name!r} appears in two places; not a tree")
        if node.name in names:
            raise ConfigError(f"duplicate node name {node.name!r}")
        seen_ids.add(nid)
        names.add(node.name)
        stack.add(nid)
        for child in node.children():
            walk(child)
        stack.discard(nid)

    walk(root)


def node_names(root: Node) -> list[str]:
    """Pre-order name sequence; two structurally identical trees agree on it."""
    out: list[str] = []

    def walk(node: Node) -> None:
        out.append(node.name)
        for child in node.children():
            walk(child)

    walk(root)
    return out
