#!/usr/bin/env bash
# Lines of program code, per crate: for each crates/<name>/src and for the
# root src/, the lines that are neither blank nor `//` comments (doc
# comments included), counted in each file up to its first `#[cfg(test)]`.
# Test-only files — modules declared with `#[path = "..."]` right under a
# `#[cfg(test)]`, such as crates/core/src/scheme_tests.rs — are skipped.
#
#   $ scripts/loc.sh
#
# A report for comparing a change against its parent, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# Paths of the test-only files under directory $1.
test_only_files() {
    find "$1" -name '*.rs' | sort | while read -r file; do
        awk -v dir="$(dirname "$file")" '
            /#\[cfg\(test\)\]/ { pending = 1; next }
            pending && match($0, /#\[path = "[^"]*"\]/) {
                print dir "/" substr($0, RSTART + 10, RLENGTH - 12)
            }
            { pending = 0 }
        ' "$file"
    done
}

# Code lines of one file, up to its first #[cfg(test)].
code_lines() {
    awk '
        /#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

total=0
for src in crates/*/src src; do
    skip=$(test_only_files "$src")
    sum=0
    while read -r file; do
        if grep -qxF "$file" <<<"$skip"; then
            continue
        fi
        sum=$((sum + $(code_lines "$file")))
    done < <(find "$src" -name '*.rs' | sort)
    printf '%-20s %6d\n' "${src%/src}" "$sum"
    total=$((total + sum))
done
printf '%-20s %6d\n' total "$total"
