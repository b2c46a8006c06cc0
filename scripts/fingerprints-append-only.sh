#!/usr/bin/env bash
# Checks that the engine fingerprint fixtures are append-only within an
# engine version:
#
#   scripts/fingerprints-append-only.sh <base-rev>
#
# Every (name, seed) record of internal/eventsim/testdata/fingerprints.json,
# internal/slotsim/testdata/fingerprints.json and
# wlan/testdata/fingerprints.json (the facade's Lab.Run battery) at
# <base-rev> must be present and unchanged at HEAD, unless sweep.EngineVersion in
# internal/sweep/cache.go differs between the two: bumping it is the
# declared way to change engine output, and then the records may change.
# New records may be added at any time.
#
# Exit status: 0 when the check holds or the engine version changed; 1
# naming each missing or changed record; 2 on a usage error. Needs jq
# and the history of <base-rev>.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: scripts/fingerprints-append-only.sh <base-rev>" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
	echo "fingerprints: $1 is not a commit" >&2
	exit 2
}

version() { git show "$1:internal/sweep/cache.go" | grep -m 1 '^const EngineVersion' || true; }
if [ "$(version "$base")" != "$(version HEAD)" ]; then
	echo "fingerprints: EngineVersion changed since $base; records may change"
	exit 0
fi

status=0
for f in internal/eventsim/testdata/fingerprints.json internal/slotsim/testdata/fingerprints.json wlan/testdata/fingerprints.json; do
	git cat-file -e "$base:$f" 2>/dev/null || continue
	bad=$(jq -rn --argjson old "$(git show "$base:$f")" --argjson new "$(git show "HEAD:$f" 2>/dev/null || echo '[]')" '
		($new | map({key: "\(.name)/\(.seed)", value: .}) | from_entries) as $now
		| $old[] | select($now["\(.name)/\(.seed)"] != .)
		| "\(.name) seed \(.seed)"')
	while IFS= read -r rec; do
		[ -n "$rec" ] || continue
		echo "::error file=$f::fingerprint $rec is missing or changed, but EngineVersion is unchanged"
		status=1
	done <<<"$bad"
done
[ "$status" -eq 0 ] && echo "fingerprints: every record at $base is unchanged at HEAD"
exit "$status"
