"""The benchmark's seeded household traffic (perfbench/mix.py), loaded once
for every test module that decides on it."""

import importlib.util
import sys
from pathlib import Path

from fetchguard import FetchguardError

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_mix", Path(__file__).resolve().parent.parent / "perfbench" / "mix.py"
)
mix = importlib.util.module_from_spec(_SPEC)
# Registered before it runs: its dataclasses look their module up.
sys.modules["perfbench_mix"] = mix
_SPEC.loader.exec_module(mix)


def decided_traces(engine, stream):
    """Each trace `engine` decides on `stream`'s requests, without end, the
    stream's registry writes applied as they come; a refused write is
    skipped."""
    while True:
        event = stream.next_event()
        if isinstance(event, mix.Write):
            try:
                if event.grantee is None:
                    engine.apply_tag(event.actor, event.object_id)
                else:
                    engine.apply_grant(event.actor, event.object_id, event.grantee)
            except FetchguardError:
                pass
            continue
        yield engine.decide(event)[1]
