"""Deterministic decision engine for household-robot fetch requests."""

from .bt import (
    Action,
    Condition,
    FAILURE,
    Fallback,
    Node,
    NodeStatus,
    Repeat,
    RUNNING,
    SUCCESS,
    Sequence,
    node_names,
    validate_tree,
)
from .config import PolicyConfig, default_config
from .emotion import (
    EmotionSample,
    Zone,
    ZoneRect,
    ZoneTable,
    escalate,
    validate_zone_table,
    zone_of,
)
from .engine import (
    ALLOW,
    DENY,
    Decision,
    DecisionEngine,
    DecisionTrace,
    FetchRequest,
    VerifyResult,
    redecide,
    verify_trace,
)
from .errors import (
    ConfigError,
    EvaluationError,
    FetchguardError,
    PermissionDeniedError,
    ReplayError,
    ScenarioParseError,
    TagConflictError,
)
from .log import append_trace, read_traces, write_traces
from .matrix import (
    CategoryRule,
    CheckResult,
    MatrixEntry,
    MatrixKey,
    category_checks,
    matrix_lookup,
    validate_matrix,
)
from .model import (
    ContextSnapshot,
    ObjectSpec,
    Region,
    Relationship,
    Report,
    SafetyClass,
    UserGroup,
    UserProfile,
    classify_user_group,
    validate_object_catalog,
)
from .ordering import (
    CooldownDurations,
    CooldownState,
    Restriction,
    ordering_restrictions,
)
from .privacy import AdminHierarchy, PersonalRegistry
from .scenario import (
    ScenarioScript,
    load_scenario,
    parse_scenario,
    run_scenario,
)

__version__ = "0.1.0"
