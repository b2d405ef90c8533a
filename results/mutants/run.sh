#!/bin/sh
# Mutant kill matrix. Each results/mutants/<id>.patch breaks one
# security-relevant decision; this script proves the suite notices.
#
# For every patch, in a throwaway copy of the tracked tree (so an
# interrupted run never leaves the repository mutated):
#   1. git apply the patch (a patch that no longer applies fails the run);
#   2. go test -count=1 -json every package whose tests can reach the
#      mutated package (a test that cannot import the mutated code
#      cannot kill it, only flake);
#   3. re-run each failing top-level test alone under the same mutant:
#      a failure that does not reproduce is a flake, not a kill;
#   4. revert the patch.
#
# The confirmed kills are written to results/mutants/KILLS.tsv (mutant,
# package, test; sorted, no timings, so the file only changes when the
# matrix does). The run fails when a mutant has no confirmed killer or
# when its fastest confirmed killer takes 1 s or more.
#
# Usage: sh results/mutants/run.sh [id ...]   (default: every patch)
set -eu
cd "$(dirname "$0")/../.."
root=$(pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$work"

if [ $# -eq 0 ]; then
    set -- $(ls results/mutants/*.patch | sed 's|.*/||; s|[.]patch$||')
fi

# Test binary -> every package it links; computed once, mutants do not
# change imports.
deps="$work/.deps"
(cd "$work" && go list -test -f '{{.ImportPath}} {{join .Deps " "}}' ./...) >"$deps"

kills="$work/.kills"
: >"$kills"
bad=0
for id in "$@"; do
    patch="$root/results/mutants/$id.patch"
    file=$(sed -n 's|^+++ b/||p' "$patch")
    if ! (cd "$work" && git apply "$patch"); then
        echo "FAIL: $id: patch no longer applies" >&2
        bad=1
        continue
    fi
    mpkg=$(cd "$work" && go list "./$(dirname "$file")")
    pkgs=$(awk -v m="$mpkg" '$1 ~ /[.]test$/ {
        for (i = 2; i <= NF; i++) if ($i == m) { sub(/[.]test$/, "", $1); print $1; next }
    }' "$deps")

    start=$(date +%s)
    (cd "$work" && go test -count=1 -json $pkgs) >"$work/.run" 2>&1 || true
    if grep -q '"FailedBuild"' "$work/.run"; then
        echo "FAIL: $id: mutant does not build" >&2
        bad=1
    fi
    # Failing top-level tests as "package test" pairs.
    sed -n 's/.*"Action":"fail","Package":"\([^"]*\)","Test":"\([^"/]*\)".*/\1 \2/p' \
        "$work/.run" | sort -u >"$work/.failed"

    # Confirm per package, keeping each kill's elapsed seconds.
    : >"$work/.confirmed"
    for pkg in $(cut -d' ' -f1 "$work/.failed" | uniq); do
        names=$(awk -v p="$pkg" '$1 == p { printf "%s%s", sep, $2; sep = "|" }' "$work/.failed")
        (cd "$work" && go test -count=1 -json -run "^($names)\$" "$pkg") 2>&1 |
            sed -n 's/.*"Action":"fail","Package":"\([^"]*\)","Test":"\([^"/]*\)","Elapsed":\([0-9.]*\).*/\1 \2 \3/p' \
                >>"$work/.confirmed" || true
    done
    (cd "$work" && git apply -R "$patch")
    secs=$(($(date +%s) - start))

    flakes=$(($(wc -l <"$work/.failed") - $(wc -l <"$work/.confirmed")))
    if [ ! -s "$work/.confirmed" ]; then
        echo "FAIL: $id: survives (no confirmed killer)" >&2
        bad=1
        continue
    fi
    fastest=$(sort -k3,3g "$work/.confirmed" | head -1)
    printf '%-26s %3d killers, fastest %s (%s s); %d unconfirmed; %d s\n' \
        "$id" "$(wc -l <"$work/.confirmed")" "$(echo "$fastest" | cut -d' ' -f1,2 | tr ' ' .)" \
        "$(echo "$fastest" | cut -d' ' -f3)" "$flakes" "$secs"
    if ! echo "$fastest" | awk '{ exit !($3 < 1) }'; then
        echo "FAIL: $id: fastest confirmed killer takes 1 s or more" >&2
        bad=1
    fi
    awk -v id="$id" '{ printf "%s\t%s\t%s\n", id, $1, $2 }' "$work/.confirmed" >>"$kills"
done

# A partial run (ids named on the command line) rewrites only its rows;
# the rows of a deleted patch go.
out=results/mutants/KILLS.tsv
if [ -f "$out" ]; then
    for id in "$@"; do printf 'run\t%s\n' "$id"; done >"$work/.ids"
    for p in results/mutants/*.patch; do printf 'has\t%s\n' "$(basename "$p" .patch)"; done >>"$work/.ids"
    awk -F'\t' 'NR == FNR { s[$1, $2] = 1; next } s["has", $1] && !s["run", $1]' "$work/.ids" "$out" >>"$kills"
fi
LC_ALL=C sort -u "$kills" >"$out"
exit "$bad"
