"""Command-line front end: validate configs, run scenarios, explain decisions.

Exit codes: 0 success, 1 validation or expectation failure, 2 I/O or parse
error.
"""

from __future__ import annotations

import argparse
import sys

from .config import PolicyConfig
from .engine import ALLOW, STAGES, DecisionTrace
from .errors import ConfigError, ScenarioParseError
from .formats import inputs_of
from .log import append_trace, find_trace
from .scenario import load_scenario, run_scenario

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IO = 2


def _load_config(path: str) -> PolicyConfig:
    try:
        return PolicyConfig.load(path)
    except (OSError, ConfigError) as exc:
        raise SystemExit(_io_error(f"cannot load config {path}: {exc}"))


def _io_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_IO


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    report = config.validate()
    if report.ok:
        print(f"config {args.config}: valid ({config.fingerprint()[:12]})")
        return EXIT_OK
    print(report.render())
    print(f"config {args.config}: {len(report.findings)} finding(s)")
    return EXIT_FAILURE


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    report = config.validate()
    if not report.ok:
        print(report.render(), file=sys.stderr)
        print("config invalid; nothing was run", file=sys.stderr)
        return EXIT_FAILURE
    try:
        script = load_scenario(args.scenario)
    except (OSError, ScenarioParseError) as exc:
        return _io_error(f"cannot load scenario {args.scenario}: {exc}")
    try:
        with open(args.trace, "w", encoding="utf-8") as log:
            result = run_scenario(config, script, lambda trace: append_trace(log, trace), args.audit_all)
    except OSError as exc:
        return _io_error(f"cannot write traces to {args.trace}: {exc}")
    print(result.summary())
    print(f"traces written to {args.trace}")
    return EXIT_OK if result.ok else EXIT_FAILURE


#: The stages whose title is not their name.
_STAGE_TITLES = {"emotion": "emotion/matrix", "category_context": "category/context"}


def render_explanation(trace: DecisionTrace) -> str:
    """Plain-language walk through the five policy stages.

    A stage failed exactly when its violation event is in the line, and the
    matrix row's cool-downs are the ones ordering_ok found, in every trace
    version. A check's inputs are read in its version's shape (inputs_of),
    so a line relabelled with another version is refused with ValueError.
    Personal-policy denials never name the user who tagged the object."""
    req = trace.request
    out = [
        f"request {trace.request_id}: user={req['user_id']} object={req['object_id']} at t={req['now']}",
    ]
    outcomes: dict[str, dict] = {}
    failed = set()
    for event in trace.events:
        if event.get("audit"):
            continue
        name = event["node"]
        if name.endswith("_ok"):
            outcomes[name[: -len("_ok")]] = inputs_of(event, trace.trace_version)
        elif name.endswith("_violation"):
            failed.add(name[: -len("_violation")])
    deciding = trace.decision.deciding_policy
    cooldowns = outcomes.get("ordering", {}).get("active_cooldowns")
    for stage in STAGES:
        title = _STAGE_TITLES.get(stage, stage)
        inputs = outcomes.get(stage)
        if inputs is None:
            out.append(f"  {title}: not evaluated")
            continue
        if stage not in failed:
            line = f"  {title}: pass"
        elif stage == "personal":
            line = f"  {title}: FAIL - personal object, access not granted"
        else:
            line = f"  {title}: FAIL - {trace.decision.reason}"
        if stage == "emotion" and inputs:
            line += (
                f" (zone {inputs.get('base_zone')} -> effective {inputs.get('effective_zone')}; "
                f"matrix row cooldown={cooldowns} "
                f"class={inputs.get('request_class')} allows {inputs.get('allowed_groups')}; "
                f"required checks {inputs.get('required_checks')})"
            )
        if stage == "ordering" and cooldowns:
            line += f" (active cool-downs: {cooldowns})"
        if stage == "category_context" and inputs.get("failed_check"):
            line += f" (failed check: {inputs['failed_check']})"
        out.append(line)
    for warning in trace.warnings:
        out.append(f"  warning: {warning}")
    verdict = trace.decision.verdict.upper()
    if trace.decision.verdict == ALLOW:
        out.append(f"verdict: {verdict}")
    else:
        out.append(f"verdict: {verdict} (deciding policy: {deciding}) - {trace.decision.reason}")
    return "\n".join(out)


def cmd_explain(args: argparse.Namespace) -> int:
    # A line the reader takes may still hold inner shapes the explanation
    # cannot walk: a request that is no object, an event without a node.
    try:
        trace = find_trace(args.trace, args.request)
        explanation = None if trace is None else render_explanation(trace)
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        return _io_error(f"cannot read trace {args.trace}: {exc}")
    if trace is None:
        print(f"error: no decision with request id {args.request!r}", file=sys.stderr)
        return EXIT_FAILURE
    print(explanation)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetchguard",
        description="Decide household-robot fetch requests and audit the decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a policy config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a scenario script and write traces")
    p.add_argument("--config", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--audit-all", action="store_true", dest="audit_all")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("explain", help="explain one decision from a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--request", required=True)
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_IO


def main_entry() -> None:
    sys.exit(main())
