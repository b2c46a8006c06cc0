# Development entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

.PHONY: test verify lint lint-json bench-smoke api api-check golden

# Tier-1 verification: everything must build and every test must pass.
verify:
	go build ./... && go test ./...

test: verify

# Static analysis: go vet plus the project's own wlanvet analyzers
# (determinism, inttime and sentinelwrap — see internal/analysis).
# wlanvet exits non-zero on any finding that does not carry a reasoned
# //wlanvet:allow annotation.
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

# Regenerate every committed output fixture after an intentional
# behaviour change (bump sweep.EngineVersion in the same change): the
# eventsim and slotsim engine fingerprints, the wlan facade's Lab.Run
# fingerprints (wlan/testdata), the scenario example
# summaries (examples/golden), the sweep JSONL goldens
# (examples/sweeps/golden), the paper-artefact table goldens
# (internal/experiment/testdata/tables) and the frame capture golden
# (internal/trace/testdata). A second run leaves no diff.
golden:
	go test -count=1 ./internal/eventsim ./internal/slotsim -run '^TestEngineFingerprints$$' -update
	go test -count=1 ./wlan -run '^TestLabRunFingerprints$$' -update
	go test -count=1 ./internal/scenario -run '^TestExampleGoldens$$' -update
	go test -count=1 ./internal/sweep -run '^TestSmokeSweepGolden$$' -update
	go test -count=1 ./internal/experiment -run '^TestTableGoldens$$' -update
	go test -count=1 ./internal/trace -run '^TestCaptureGolden$$' -update

# Regenerate the committed public-API snapshot after an intentional
# surface change (CI diffs it; see cmd/apisnapshot). The snapshot holds
# wlan's exported surface and every module type reachable from it.
api:
	go run ./cmd/apisnapshot

# The CI gate: fail if the exported surface of wlan, or of any module
# type reachable from it, drifted from the committed snapshot.
api-check:
	go run ./cmd/apisnapshot -check

# Fast sanity pass: every benchmark must still compile and run.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
