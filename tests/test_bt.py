import random

import pytest

from fetchguard import (
    Action,
    Condition,
    ConfigError,
    EvaluationError,
    Fallback,
    NodeStatus,
    Repeat,
    Sequence,
    node_names,
    validate_tree,
)
from fetchguard.bt import TickListener

from reference_bt import random_tree, reference_tick

S = NodeStatus.SUCCESS
F = NodeStatus.FAILURE
R = NodeStatus.RUNNING


def const_condition(name, value, calls=None):
    def predicate(state):
        if calls is not None:
            calls.append(name)
        return value

    return Condition(name, predicate)


class Visits(TickListener):
    def __init__(self):
        self.entered = []
        self.exited = []

    def enter(self, node):
        self.entered.append(node.name)

    def exit(self, node, status):
        self.exited.append((node.name, status))


class TestComposites:
    def test_sequence_short_circuits_at_first_failure(self):
        calls = []
        tree = Sequence(
            "root",
            [
                const_condition("a", True, calls),
                const_condition("b", False, calls),
                const_condition("c", True, calls),
            ],
        )
        assert tree.tick(None) is F
        assert calls == ["a", "b"]  # third child never evaluated

    def test_fallback_returns_first_success(self):
        calls = []
        tree = Fallback("root", [const_condition("a", False, calls), const_condition("b", True, calls)])
        assert tree.tick(None) is S
        assert calls == ["a", "b"]

    def test_fallback_fails_when_all_fail(self):
        tree = Fallback("root", [const_condition("a", False), const_condition("b", False)])
        assert tree.tick(None) is F

    def test_sequence_succeeds_when_all_succeed(self):
        tree = Sequence("root", [const_condition("a", True), const_condition("b", True)])
        assert tree.tick(None) is S

    def test_running_propagates_and_short_circuits(self):
        calls = []
        tree = Sequence(
            "root",
            [
                Action("r", lambda state: R),
                const_condition("never", True, calls),
            ],
        )
        assert tree.tick(None) is R
        assert calls == []

    def test_empty_composite_is_a_config_error(self):
        with pytest.raises(ConfigError) as exc:
            Sequence("root", [])
        assert str(exc.value) == "sequence 'root' has no children"
        with pytest.raises(ConfigError) as exc:
            Fallback("root", [])
        assert str(exc.value) == "fallback 'root' has no children"


class TestRepeat:
    def test_one_tick_per_request_with_state_carried(self):
        def bump(state):
            state["count"] = state.get("count", 0) + 1
            return S

        tree = Repeat("rep", Sequence("seq", [Action("bump", bump)]))
        state = {}
        for expected in (1, 2, 3):
            assert tree.tick(state) is S
            assert state["count"] == expected


class TestTickState:
    def test_every_leaf_receives_the_ticked_object(self):
        state = object()
        seen = []

        def condition(name, result):
            def predicate(got):
                seen.append((name, got))
                return result

            return Condition(name, predicate)

        def action(name, status):
            def effect(got):
                seen.append((name, got))
                return status

            return Action(name, effect)

        tree = Repeat(
            "rep",
            Sequence(
                "seq",
                [
                    Fallback("fb", [condition("no", False), action("act_fail", F), condition("yes", True)]),
                    action("act_ok", S),
                ],
            ),
        )
        assert tree.tick(state) is S
        assert [name for name, _ in seen] == ["no", "act_fail", "yes", "act_ok"]
        assert all(got is state for _, got in seen)

    @pytest.mark.parametrize("kind", [Condition, Action], ids=["condition", "action"])
    @pytest.mark.parametrize(
        "error", [EvaluationError("no zone covers point"), KeyError("missing")], ids=["evaluation_error", "key_error"]
    )
    def test_a_leaf_exception_propagates_unchanged(self, kind, error):
        def fails(state):
            raise error

        tree = Sequence("root", [const_condition("first", True), kind("fails", fails)])
        with pytest.raises(type(error)) as exc:
            tree.tick({})
        assert exc.value is error

    @pytest.mark.parametrize("returned", [True, None, "success"], ids=repr)
    def test_an_action_that_returns_no_status_is_an_evaluation_error(self, returned):
        tree = Sequence("root", [const_condition("first", True), Action("odd", lambda state: returned)])
        with pytest.raises(EvaluationError, match=r"action 'odd' returned .* expected a NodeStatus"):
            tree.tick({})


class TestTreeValidation:
    def test_duplicate_names_rejected(self):
        tree = Sequence("root", [const_condition("x", True), const_condition("x", False)])
        with pytest.raises(ConfigError, match="duplicate"):
            validate_tree(tree)

    def test_shared_subtree_rejected(self):
        shared = const_condition("shared", True)
        tree = Sequence("root", [shared, Fallback("fb", [shared])])
        with pytest.raises(ConfigError):
            validate_tree(tree)

    def test_well_formed_tree_passes(self):
        tree = Repeat("rep", Sequence("seq", [const_condition("a", True)]))
        validate_tree(tree)
        assert node_names(tree) == ["rep", "seq", "a"]


class TestOracleEquivalence:
    def test_tick_matches_reference_on_random_trees(self):
        rng = random.Random(20260809)
        for _ in range(100):
            tree = random_tree(rng)
            listener = Visits()
            status = tree.tick({}, listener)
            ref_visits = []
            ref_status = reference_tick(tree, {}, ref_visits)
            assert status is ref_status
            assert listener.entered == ref_visits

    def test_determinism_same_inputs_same_walk(self):
        rng = random.Random(7)
        for _ in range(25):
            tree = random_tree(rng)
            first = Visits()
            second = Visits()
            s1 = tree.tick({}, first)
            s2 = tree.tick({}, second)
            assert s1 is s2
            assert first.entered == second.entered
            assert first.exited == second.exited
