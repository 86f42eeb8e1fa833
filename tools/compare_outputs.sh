#!/usr/bin/env bash
# Compare the output digest of a git revision with that of the working tree.
#
#     tools/compare_outputs.sh [REV]        (REV defaults to HEAD)
#
# Unpacks `git archive REV` into a temporary directory, copies the working
# tree's tools/outputs_digest.py into it, runs each tree's copy of that
# script against its own tree, and prints the diff of the two outputs, or
# the lines themselves when they agree, then the line count of each
# src/dstar/*.py file in each tree (0 where a tree lacks the file) and the
# totals, each beside its lines of code outside docstrings and comments
# (tools/code_lines.py).  Exits 1 when any line differs.  The working tree and the index
# are left as they are; no bytecode is written.
set -euo pipefail
rev=${1:-HEAD}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/tree"
mkdir -p "$tmp/tree/tools"
cp "$root/tools/outputs_digest.py" "$tmp/tree/tools/outputs_digest.py"
export PYTHONDONTWRITEBYTECODE=1
python3 "$tmp/tree/tools/outputs_digest.py" > "$tmp/before"
python3 "$root/tools/outputs_digest.py" > "$tmp/after"
status=0
if diff -u --label "$rev" --label "working tree" "$tmp/before" "$tmp/after"; then
    cat "$tmp/after"
    echo "all $(wc -l < "$tmp/after") lines identical to $rev"
else
    status=1
fi
lines() { if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi; }
# code TREE NAME: the code lines of TREE/src/dstar/NAME, or of every module for "total"
code() {
    if [ "$2" = total ]; then
        python3 "$root/tools/code_lines.py" "$1"/src/dstar/*.py | tail -n 1 | awk '{print $1}'
    elif [ -f "$1/src/dstar/$2" ]; then
        # awk reads to the end: a reader that stops after one line lets
        # code_lines.py die of a broken pipe, which pipefail makes a failure
        python3 "$root/tools/code_lines.py" "$1/src/dstar/$2" | awk 'NR == 1 {print $1}'
    else
        echo 0
    fi
}
for name in $( (cd "$tmp/tree/src/dstar" && ls -- *.py; cd "$root/src/dstar" && ls -- *.py) \
               | sort -u); do
    before=$(lines "$tmp/tree/src/dstar/$name")
    after=$(lines "$root/src/dstar/$name")
    code_before=$(code "$tmp/tree" "$name")
    code_after=$(code "$root" "$name")
    printf '  %-14s %5d at %s, %5d in the working tree (%+d); code %4d, %4d (%+d)\n' \
        "$name" "$before" "$rev" "$after" $((after - before)) \
        "$code_before" "$code_after" $((code_after - code_before))
done
echo "src/dstar: $(cat "$tmp"/tree/src/dstar/*.py | wc -l) lines at $rev," \
     "$(cat "$root"/src/dstar/*.py | wc -l) in the working tree;" \
     "code $(code "$tmp/tree" total) at $rev, $(code "$root" total) in the working tree"
exit $status
