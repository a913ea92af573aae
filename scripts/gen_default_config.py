#!/usr/bin/env python3
"""Regenerate configs/default.json from the in-code defaults.

Run after changing default_config(); tests assert the two stay in sync.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    # Runs from a checkout without installing the package.
    sys.path.insert(0, str(ROOT / "src"))
    from fetchguard import default_config

    out = ROOT / "configs" / "default.json"
    out.parent.mkdir(exist_ok=True)
    config = default_config()
    config.dump(out)
    print(f"wrote {out} (fingerprint {config.fingerprint()})")


if __name__ == "__main__":
    main()
