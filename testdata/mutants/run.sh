#!/bin/sh
# Mutation gate: every patch in this directory reintroduces a defect this
# repo once had, and names the package and the test (Run:) or benchmark
# (Bench:) that must catch it. For each patch this script runs the named
# tests on a clean copy of the tree, where they must pass, then applies the
# patch and runs them again, where they must fail. It exits non-zero unless
# every mutant is killed.
#
# The copy is a temporary git worktree of the current tree, uncommitted
# edits to tracked files included, under $TMPDIR; the checkout itself is
# never touched. Run it as `make mutants`, or name patches to run a subset:
#
#	sh testdata/mutants/run.sh testdata/mutants/09-*.patch
set -u

root=$(git rev-parse --show-toplevel) || exit 1
cd "$root" || exit 1
if [ $# -eq 0 ]; then
	set -- testdata/mutants/*.patch
fi
rev=$(git stash create)
rev=${rev:-HEAD}
work=$(mktemp -d) || exit 1
tree="$work/tree"
trap 'git -C "$root" worktree remove --force "$tree" >/dev/null 2>&1; rm -rf "$work"' EXIT INT TERM
git worktree add --quiet --detach "$tree" "$rev" || exit 1

# gotest PKG KIND PATTERN runs the named tests or benchmark in the worktree.
gotest() {
	if [ "$2" = Bench ]; then
		(cd "$tree" && go test -count=1 -run '^$' -bench "$3" -benchtime 1x "$1")
	else
		(cd "$tree" && go test -count=1 -run "$3" "$1")
	fi
}

killed=0
failed=0
for patch in "$@"; do
	name=$(basename "$patch" .patch)
	pkg=$(sed -n 's/^Package: //p' "$patch")
	kind=Run
	pattern=$(sed -n 's/^Run: //p' "$patch")
	if [ -z "$pattern" ]; then
		kind=Bench
		pattern=$(sed -n 's/^Bench: //p' "$patch")
	fi
	if [ -z "$pkg" ] || [ -z "$pattern" ]; then
		echo "BROKEN   $name: no Package: and Run: or Bench: line"
		failed=$((failed + 1))
		continue
	fi
	if ! gotest "$pkg" "$kind" "$pattern" >"$work/out" 2>&1; then
		echo "BROKEN   $name: $kind $pattern fails in $pkg without the patch"
		cat "$work/out"
		failed=$((failed + 1))
		continue
	fi
	if ! git -C "$tree" apply "$root/$patch"; then
		echo "BROKEN   $name: does not apply"
		failed=$((failed + 1))
		continue
	fi
	if ! (cd "$tree" && go vet "$pkg") >"$work/out" 2>&1; then
		echo "BROKEN   $name: does not compile"
		cat "$work/out"
		failed=$((failed + 1))
	elif gotest "$pkg" "$kind" "$pattern" >"$work/out" 2>&1; then
		echo "SURVIVED $name: $kind $pattern still passes in $pkg"
		failed=$((failed + 1))
	else
		echo "killed   $name by $kind $pattern"
		killed=$((killed + 1))
	fi
	git -C "$tree" checkout --quiet -- .
done
echo "$killed killed, $failed survived or broken"
[ "$failed" -eq 0 ]
