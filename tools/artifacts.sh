#!/bin/sh
# Run every command x bundled config x profile (fast and paper) of the CLI
# and keep what each run leaves.
#
# Usage (from the root of a checkout, with damped_eb importable, e.g.
# PYTHONPATH=src):
#
#     tools/artifacts.sh DIR
#
# Each run gets DIR/<profile>/<command>-<config>/ holding its exit code
# (exit), standard output (stdout), standard error (stderr) and its
# artifacts (artifacts/).  A failing run is recorded, not fatal.  Runs
# print paths under DIR, so two trees compare byte for byte (diff -r) only
# when both were made at the same DIR: make one, move it aside, then make
# the other.
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: tools/artifacts.sh DIR" >&2
    exit 2
fi
runs="$1"
for profile in fast paper; do
    for cmd in simulate temporal-study spatial-study energy-study validate-law; do
        for cfg in src/damped_eb/configs/*.cfg; do
            out="$runs/$profile/$cmd-$(basename "$cfg" .cfg)"
            mkdir -p "$out"
            status=0
            python -m damped_eb.cli "$cmd" --config "$cfg" --out "$out/artifacts" \
                --profile "$profile" > "$out/stdout" 2> "$out/stderr" || status=$?
            echo "$status" > "$out/exit"
        done
    done
done
