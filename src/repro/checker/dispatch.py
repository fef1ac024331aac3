"""Pipeline registry: the checking pipelines each surface accepts.

One authoritative list of checking pipelines, consumed by the CLI
subparsers (run/check/suite/mutate), the runner's validation and the
argparse-introspection test — the registry exists so help text, choices
and docs cannot drift apart again.
"""

from __future__ import annotations

#: every batch checking pipeline `check_campaign_result` accepts
PIPELINES = ("graphs", "delta", "packed", "poly")
#: cross-oracles `--cross-check` can run after checking
CROSS_CHECKS = ("feasible",)
