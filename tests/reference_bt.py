"""Brute-force reference interpreter for behaviour trees.

Implements the textbook Sequence/Fallback/Repeat semantics directly and
records the visit order. Kept deliberately independent of the production
tick so the two can be compared on random trees.
"""

from fetchguard import Action, Condition, Fallback, NodeStatus, Repeat, Sequence

S = NodeStatus.SUCCESS
F = NodeStatus.FAILURE


def reference_tick(node, state, visits):
    visits.append(node.name)
    if isinstance(node, Sequence):
        for child in node.children():
            status = reference_tick(child, state, visits)
            if status is not S:
                return status
        return S
    if isinstance(node, Fallback):
        for child in node.children():
            status = reference_tick(child, state, visits)
            if status is not F:
                return status
        return F
    if isinstance(node, Repeat):
        return reference_tick(node.children()[0], state, visits)
    if isinstance(node, Condition):
        return S if node.predicate(state) else F
    if isinstance(node, Action):
        return node.effect(state)
    raise AssertionError(f"unknown node kind: {node!r}")


def random_tree(rng, max_depth=5, max_nodes=20):
    """Random well-formed tree: unique names, composites never empty."""
    counter = [0]

    def fresh_name(kind):
        counter[0] += 1
        return f"{kind}{counter[0]}"

    def leaf():
        counter[0] += 1
        if rng.random() < 0.5:
            result = rng.random() < 0.5
            return Condition(fresh_name("c"), lambda state, r=result: r)
        status = rng.choices(
            [NodeStatus.SUCCESS, NodeStatus.FAILURE, NodeStatus.RUNNING],
            weights=[5, 4, 1],
        )[0]
        return Action(fresh_name("a"), lambda state, s=status: s)

    def build(depth):
        if depth >= max_depth or counter[0] >= max_nodes:
            return leaf()
        roll = rng.random()
        if roll < 0.35:
            kids = [build(depth + 1) for _ in range(rng.randint(1, 3))]
            return Sequence(fresh_name("seq"), kids)
        if roll < 0.7:
            kids = [build(depth + 1) for _ in range(rng.randint(1, 3))]
            return Fallback(fresh_name("fb"), kids)
        if roll < 0.8:
            return Repeat(fresh_name("rep"), build(depth + 1))
        return leaf()

    return build(0)
