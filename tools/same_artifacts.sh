#!/bin/sh
# Compare what every CLI run leaves at a git revision and in the working
# tree, byte for byte.
#
# Usage (from the root of a checkout):
#
#     tools/same_artifacts.sh REV
#
# Runs tools/artifacts.sh (this tree's copy, so both sides run the same list)
# on a `git archive` of REV and then on the working tree, each with its own
# src/ on PYTHONPATH and both at the same DIR, since the runs print their
# paths.  Prints the differences and exits with the status of `diff -r`:
# 0 when exit codes, stdout, stderr and artifacts are all identical.
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: tools/same_artifacts.sh REV" >&2
    exit 2
fi
root="$(pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$1" | tar -x -C "$tmp/rev"
export PYTHONDONTWRITEBYTECODE=1
(cd "$tmp/rev" && PYTHONPATH=src "$root/tools/artifacts.sh" "$tmp/runs")
mv "$tmp/runs" "$tmp/at-rev"
PYTHONPATH=src tools/artifacts.sh "$tmp/runs"
mv "$tmp/runs" "$tmp/at-tree"
status=0
diff -r "$tmp/at-rev" "$tmp/at-tree" || status=$?
exit "$status"
