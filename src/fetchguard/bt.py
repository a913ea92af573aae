"""Minimal behaviour-tree interpreter: node algebra, tick semantics, blackboard.

Content-free: nothing in here knows about fetch policies. Trees are built from
Sequence / Fallback composites, a Repeat decorator and Condition / Action
leaves, each carrying a stable name that shows up verbatim in decision traces.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable

from .errors import ConfigError, EvaluationError, MissingKeyError


class NodeStatus(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    RUNNING = "running"


SUCCESS = NodeStatus.SUCCESS
FAILURE = NodeStatus.FAILURE
RUNNING = NodeStatus.RUNNING


class _Absent:
    __slots__ = ()

    def __repr__(self):
        return "ABSENT"


#: Sentinel distinguishing "key not present" from any stored value (incl. None).
ABSENT = _Absent()


class Blackboard:
    """String-keyed store shared by the leaves of one tree."""

    def __init__(self):
        self._data: dict[str, Any] = {}

    def read(self, key: str, default: Any = ABSENT) -> Any:
        return self._data.get(key, default)

    def require(self, key: str) -> Any:
        if key not in self._data:
            raise MissingKeyError(key)
        return self._data[key]

    def write(self, key: str, value: Any) -> None:
        self._data[key] = value

    def remove(self, key: str) -> None:
        self._data.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> list[str]:
        return sorted(self._data)

    def readonly(self) -> "ReadOnlyBlackboard":
        return ReadOnlyBlackboard(self)


class ReadOnlyBlackboard:
    """View handed to Condition predicates; any write attempt raises."""

    __slots__ = ("_board",)

    def __init__(self, board: Blackboard):
        self._board = board

    def read(self, key: str, default: Any = ABSENT) -> Any:
        return self._board.read(key, default)

    def require(self, key: str) -> Any:
        return self._board.require(key)

    def __contains__(self, key: str) -> bool:
        return key in self._board

    def keys(self) -> list[str]:
        return self._board.keys()

    def write(self, key: str, value: Any) -> None:
        raise EvaluationError("conditions may not write to the blackboard", key=key)

    def remove(self, key: str) -> None:
        raise EvaluationError("conditions may not write to the blackboard", key=key)


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

    def tick(self, board: Blackboard, listener: TickListener | None = None) -> NodeStatus:
        raise NotImplementedError


class Sequence(Node):
    """Ticks children left to right; fails at the first failing child."""

    def __init__(self, name: str, children: Iterable[Node]):
        super().__init__(name)
        self._children = tuple(children)
        if not self._children:
            raise ConfigError(f"sequence {name!r} has no children")

    def children(self) -> tuple[Node, ...]:
        return self._children

    def tick(self, board: Blackboard, listener: TickListener | None = None) -> NodeStatus:
        if listener:
            listener.enter(self)
        status = SUCCESS
        for child in self._children:
            status = child.tick(board, listener)
            if status is not SUCCESS:
                break
        if listener:
            listener.exit(self, status)
        return status


class Fallback(Node):
    """Ticks children left to right; succeeds at the first succeeding child."""

    def __init__(self, name: str, children: Iterable[Node]):
        super().__init__(name)
        self._children = tuple(children)
        if not self._children:
            raise ConfigError(f"fallback {name!r} has no children")

    def children(self) -> tuple[Node, ...]:
        return self._children

    def tick(self, board: Blackboard, listener: TickListener | None = None) -> NodeStatus:
        if listener:
            listener.enter(self)
        status = FAILURE
        for child in self._children:
            status = child.tick(board, listener)
            if status is not FAILURE:
                break
        if listener:
            listener.exit(self, status)
        return status


class Repeat(Node):
    """Decorator meaning "re-evaluate per item": the caller drives the
    repetition by ticking once per request; each tick runs the child once."""

    def __init__(self, name: str, child: Node):
        super().__init__(name)
        self._child = child

    def children(self) -> tuple[Node, ...]:
        return (self._child,)

    def tick(self, board: Blackboard, listener: TickListener | None = None) -> NodeStatus:
        if listener:
            listener.enter(self)
        status = self._child.tick(board, listener)
        if listener:
            listener.exit(self, status)
        return status


class Condition(Node):
    """Leaf evaluating a predicate against a read-only blackboard view."""

    def __init__(self, name: str, predicate: Callable[[ReadOnlyBlackboard], bool]):
        super().__init__(name)
        self.predicate = predicate

    def tick(self, board: Blackboard, listener: TickListener | None = None) -> NodeStatus:
        if listener:
            listener.enter(self)
        try:
            ok = self.predicate(board.readonly())
        except EvaluationError as exc:
            if exc.node is None:
                raise EvaluationError(str(exc), node=self.name, key=exc.key) from exc
            raise
        status = SUCCESS if ok else FAILURE
        if listener:
            listener.exit(self, status)
        return status


class Action(Node):
    """Leaf executing an effect; the effect may write and returns its status."""

    def __init__(self, name: str, effect: Callable[[Blackboard], NodeStatus]):
        super().__init__(name)
        self.effect = effect

    def tick(self, board: Blackboard, listener: TickListener | None = None) -> NodeStatus:
        if listener:
            listener.enter(self)
        try:
            status = self.effect(board)
        except EvaluationError as exc:
            if exc.node is None:
                raise EvaluationError(str(exc), node=self.name, key=exc.key) from exc
            raise
        if not isinstance(status, NodeStatus):
            raise EvaluationError(
                f"action {self.name!r} returned {status!r}, expected a NodeStatus",
                node=self.name,
            )
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
