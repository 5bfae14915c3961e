#!/bin/sh
# Local mirror of the CI lint job.  ruff/mypy are optional dev tools:
# when one is missing it is skipped with a note rather than failing, so
# the script works in minimal environments; the layer-order check
# (tests/test_layering.py: stdlib ast, needs only pytest) and the
# plan-verifier self-lint (repro lint) always run.
set -e
cd "$(dirname "$0")/.."

status=0

echo "== layer order =="
PYTHONPATH=src python -m pytest tests/test_layering.py -q || status=1

if python -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    python -m ruff check src tests || status=1
else
    echo "== ruff == (not installed, skipped)"
fi

if python -c "import mypy" 2>/dev/null; then
    echo "== mypy =="
    python -m mypy --ignore-missing-imports -p repro || status=1
else
    echo "== mypy == (not installed, skipped)"
fi

echo "== repro lint =="
PYTHONPATH=src python -m repro lint --workloads examples/paper_demo.sql || status=1

exit $status
