# Development entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

.PHONY: test verify lint lint-json bench bench-compare bench-gate bench-smoke api api-check

# Tier-1 verification: everything must build and every test must pass.
verify:
	go build ./... && go test ./...

test: verify

# Static analysis: go vet plus the project's own wlanvet analyzers
# (determinism, inttime, hotpath, observerpurity, sentinelwrap and
# lockorder — see internal/analysis). wlanvet exits non-zero on any
# finding that does not carry a reasoned //wlanvet:allow annotation.
lint:
	go vet ./...
	go run ./cmd/wlanvet ./...

# Same gate, machine-readable: findings as a JSON array on stdout
# (schema-stable file/line/col/analyzer/message, sorted by package
# path then position — pinned by cmd/wlanvet's tests). CI pipes this
# through jq into GitHub ::error annotations; editors and scripts can
# consume it the same way. Exit status matches `lint`.
lint-json:
	go run ./cmd/wlanvet -json ./...

# Regenerate the committed public-API snapshot after an intentional
# surface change (CI diffs it; see cmd/apisnapshot).
api:
	go run ./cmd/apisnapshot

# The CI gate: fail if the exported wlan surface drifted from the
# committed snapshot.
api-check:
	go run ./cmd/apisnapshot -check

# Regenerate the committed benchmark-trajectory point. Run on a quiet
# machine; the committed file is the baseline CI compares against.
bench:
	go run ./cmd/benchreport -out BENCH_PR7.json

# Compare a fresh short-scale run against the committed baseline
# (informational: prints the table and warnings, never fails).
bench-compare:
	go run ./cmd/benchreport -compare BENCH_PR7.json

# The CI perf gate: fail on >20% regression (ns/op, allocs/op, B/op,
# or an Mbps drop) against the committed baseline — unless the
# environment fingerprint differs, which downgrades the comparison to
# informational (a foreign baseline says nothing about this machine).
bench-gate:
	go run ./cmd/benchreport -compare BENCH_PR7.json -strict

# Fast sanity pass: every benchmark must still compile and run.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
