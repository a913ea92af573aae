import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fetchguard import (
    ABSENT,
    Action,
    Blackboard,
    Condition,
    ConfigError,
    EvaluationError,
    Fallback,
    MissingKeyError,
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
    def predicate(view):
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
        assert tree.tick(Blackboard()) is F
        assert calls == ["a", "b"]  # third child never evaluated

    def test_fallback_returns_first_success(self):
        calls = []
        tree = Fallback("root", [const_condition("a", False, calls), const_condition("b", True, calls)])
        assert tree.tick(Blackboard()) is S
        assert calls == ["a", "b"]

    def test_fallback_fails_when_all_fail(self):
        tree = Fallback("root", [const_condition("a", False), const_condition("b", False)])
        assert tree.tick(Blackboard()) is F

    def test_sequence_succeeds_when_all_succeed(self):
        tree = Sequence("root", [const_condition("a", True), const_condition("b", True)])
        assert tree.tick(Blackboard()) is S

    def test_running_propagates_and_short_circuits(self):
        calls = []
        tree = Sequence(
            "root",
            [
                Action("r", lambda b: R),
                const_condition("never", True, calls),
            ],
        )
        assert tree.tick(Blackboard()) is R
        assert calls == []

    def test_empty_composite_is_a_config_error(self):
        with pytest.raises(ConfigError):
            Sequence("root", [])
        with pytest.raises(ConfigError):
            Fallback("root", [])


class TestRepeat:
    def test_one_tick_per_request_with_state_carried(self):
        def bump(board):
            n = board.read("count", 0)
            board.write("count", n + 1)
            return S

        tree = Repeat("rep", Sequence("seq", [Action("bump", bump)]))
        board = Blackboard()
        for expected in (1, 2, 3):
            assert tree.tick(board) is S
            assert board.read("count") == expected


class TestBlackboard:
    def test_absent_reads_are_distinguishable(self):
        board = Blackboard()
        assert board.read("last_request") is ABSENT
        board.write("last_request", None)
        assert board.read("last_request") is None

    def test_read_your_write_and_last_write_wins(self):
        board = Blackboard()
        board.write("last_request", "knife")
        assert board.read("last_request") == "knife"
        board.write("last_request", "towel")
        assert board.read("last_request") == "towel"

    def test_require_raises_missing_key(self):
        with pytest.raises(MissingKeyError):
            Blackboard().require("identity")

    def test_conditions_get_a_readonly_view(self):
        board = Blackboard()

        def sneaky(view):
            view.write("x", 1)
            return True

        with pytest.raises(EvaluationError):
            Condition("sneaky", sneaky).tick(board)
        assert "x" not in board

    def test_missing_key_error_names_node_and_key(self):
        tree = Condition("needs_identity", lambda view: view.require("identity") is not None)
        with pytest.raises(EvaluationError) as exc:
            tree.tick(Blackboard())
        assert exc.value.node == "needs_identity"
        assert exc.value.key == "identity"


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
            board = Blackboard()
            listener = Visits()
            status = tree.tick(board, listener)
            ref_visits = []
            ref_status = reference_tick(tree, Blackboard(), ref_visits)
            assert status is ref_status
            assert listener.entered == ref_visits

    def test_determinism_same_inputs_same_walk(self):
        rng = random.Random(7)
        for _ in range(25):
            tree = random_tree(rng)
            first = Visits()
            second = Visits()
            s1 = tree.tick(Blackboard(), first)
            s2 = tree.tick(Blackboard(), second)
            assert s1 is s2
            assert first.entered == second.entered
            assert first.exited == second.exited


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.text(max_size=5), st.booleans()),
        max_size=6,
    ),
    st.lists(st.booleans(), min_size=1, max_size=6),
)
def test_conditions_never_write(contents, results):
    board = Blackboard()
    for key, value in contents.items():
        board.write(key, value)
    before = {k: board.read(k) for k in board.keys()}
    children = [const_condition(f"c{i}", value) for i, value in enumerate(results)]
    Fallback("fb", children).tick(board)
    Sequence("seq", children_copy(results)).tick(board)
    assert {k: board.read(k) for k in board.keys()} == before


def children_copy(results):
    return [const_condition(f"s{i}", value) for i, value in enumerate(results)]
