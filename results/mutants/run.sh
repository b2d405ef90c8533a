#!/bin/sh
# Mutant kill matrix. Each results/mutants/<id>.patch breaks one
# security-relevant decision; this script proves the suite notices.
#
# For every patch, in a throwaway copy of the tracked tree (so an
# interrupted run never leaves the repository mutated):
#   1. git apply the patch (a patch that no longer applies fails the run);
#   2. go test -count=1 -json every package whose tests can reach the
#      mutated package (a test that cannot import the mutated code
#      cannot kill it, only flake). A panic on a goroutine other than a
#      test's own ends the package's test binary with no result for the
#      test that was running and none for the tests after it: that test
#      counts as failed, and the package's unstarted tests run again
#      under the mutant until every test has run;
#   3. re-run each failing top-level test alone under the same mutant,
#      three times over (each pass runs again what a crash left
#      unstarted): a failure that does not reproduce in every pass is a
#      flake, not a kill, so a test that fails only when goroutines
#      happen to collide is rarely recorded;
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

# outcomes <json> prints "package test elapsed" for each top-level test
# of a go test -json stream that failed or was running when its test
# binary died (the binary's elapsed time stands in for that test's);
# outcomes -started <json> prints "package test" for every top-level test
# that started, and outcomes -crashed <json> each package whose binary
# died.
outcomes() {
    mode=failed
    case $1 in -started | -crashed) mode=${1#-}; shift ;; esac
    awk -v mode="$mode" '
    function field(name, num) {
        if (!match($0, "\"" name "\":" (num ? "[0-9.]+" : "\"[^\"]*\""))) return ""
        return substr($0, RSTART + length(name) + 3 + !num, RLENGTH - length(name) - 3 - 2 * !num)
    }
    {
        act = field("Action"); pkg = field("Package"); test = field("Test")
        if (act !~ /^(run|pass|fail|skip)$/ || test ~ /[/]/) next
        if (test == "") { if (act == "fail") died[pkg] = field("Elapsed", 1); next }
        k = pkg " " test
        if (!(k in state)) order[++n] = k
        state[k] = act; elapsed[k] = field("Elapsed", 1)
    }
    END {
        for (i = 1; i <= n; i++) {
            k = order[i]; split(k, a, " ")
            if (mode == "started") print k
            else if (mode == "crashed") { if (state[k] == "run" && !seen[a[1]]++) print a[1] }
            else if (state[k] == "fail") print k, elapsed[k]
            else if (state[k] == "run") print k, died[a[1]]
        }
    }' "$1"
}

# settle <pkg> <names> appends to $work/.settled the outcomes of running
# pkg's top-level tests named in the |-list names under the mutant, again
# and again until each has started.
settle() {
    names=$2
    while [ -n "$names" ]; do
        (cd "$work" && go test -count=1 -json -run "^($names)\$" "$1") >"$work/.settle" 2>&1 || true
        outcomes "$work/.settle" >>"$work/.settled"
        outcomes -started "$work/.settle" | cut -d' ' -f2 >"$work/.settle-started"
        left=$(echo "$names" | tr '|' '\n' | grep -vxF -f "$work/.settle-started" | paste -sd'|' -) || true
        [ "$left" = "$names" ] && break # nothing started: a build failure
        names=$left
    done
}

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
    # Failing top-level tests as "package test" pairs. A package whose
    # test binary died runs its unstarted tests again.
    outcomes "$work/.run" >"$work/.settled"
    for pkg in $(outcomes -crashed "$work/.run"); do
        outcomes -started "$work/.run" | awk -v p="$pkg" '$1 == p { print $2 }' >"$work/.started"
        settle "$pkg" "$( (cd "$work" && go test -list . "$pkg") | grep -E '^(Test|Example|Fuzz)' |
            grep -vxF -f "$work/.started" | paste -sd'|' -)"
    done
    cut -d' ' -f1,2 "$work/.settled" | sort -u >"$work/.failed"

    # Confirm per package in three passes; a kill is a test that failed
    # in all three, at its slowest pass's elapsed seconds.
    : >"$work/.settled"
    for pass in 1 2 3; do
        for pkg in $(cut -d' ' -f1 "$work/.failed" | uniq); do
            settle "$pkg" "$(awk -v p="$pkg" '$1 == p { printf "%s%s", sep, $2; sep = "|" }' "$work/.failed")"
        done
    done
    awk '{ k = $1 " " $2; if (!(k in n) || $3 + 0 > t[k] + 0) t[k] = $3; n[k]++ }
        END { for (k in n) if (n[k] == 3) print k, t[k] }' "$work/.settled" | sort >"$work/.confirmed"
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
