"""The four workloads, by name.  Modules are imported on demand so that a
workload's process loads only what that workload touches."""

from __future__ import annotations

import importlib


def run(options):
    """Run ``options.workload`` and return its :class:`bench.harness.Outcome`."""
    module = importlib.import_module(f"bench.workloads.{options.workload}")
    return module.run(options)
