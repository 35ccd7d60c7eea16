#!/usr/bin/env bash
# Line counts of the Go tree — the meter of ROADMAP item 2: non-test and
# test lines (plain `wc -l`, blanks and comments included) per package
# directory and for the whole tree. Pass a directory to count another
# checkout (e.g. a clone of the parent commit).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' -print0 | xargs -0 wc -l | awk '
	$2 == "total" { next }
	{
		path = substr($2, 3)
		n = split(path, p, "/")
		pkg = n == 1 ? "." : (n == 2 || p[1] == "bench" ? p[1] : p[1] "/" p[2])
		if (path ~ /_test\.go$/) test[pkg] += $1; else code[pkg] += $1
		seen[pkg] = 1
	}
	END {
		for (pkg in seen) {
			printf "%-28s %9d %9d\n", pkg, code[pkg], test[pkg]
			c += code[pkg]; t += test[pkg]
		}
		printf "%-28s %9d %9d\n", "~total", c, t
	}' | sort | sed 's/^~total/total /' | { printf '%-28s %9s %9s\n' package non-test test; cat; }
