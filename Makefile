# Build/test/bench entry points, including the PGO workflow:
# `make pgo` regenerates the committed default.pgo profile from the
# localbench run of the paper corpus (scenarios/paper, the same batch
# BENCH.json measures) and distributes it into every cmd/* main
# package (the Go toolchain auto-applies a default.pgo only when it sits in
# the main package's own directory), and `make verify-pgo` proves the
# committed profile is loadable and actually applied by a plain `go build`
# (the CI pgo-gate job runs it on every commit).

GO ?= go
PGO_ITERS ?= 3

.PHONY: build test race bench pgo verify-pgo

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./internal/bitset/ ./internal/local/ ./internal/sweep/ \
		./internal/serve/ ./internal/fabric/ ./internal/job/ \
		./internal/algorithms/linial/ ./internal/algorithms/arbmis/ \
		./internal/algorithms/lift/ ./internal/algorithms/matching/

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/bitset/ ./internal/local/

# Regenerate default.pgo: run the paper corpus (localbench's default
# scenarios/paper batch) $(PGO_ITERS) times under one CPU profile, then copy
# the profile next to each main package.
# The root default.pgo is the canonical artifact; the cmd/*/default.pgo
# copies are what `go build ./...` picks up per binary.
pgo:
	$(GO) run ./cmd/localbench -pgo default.pgo -pgo-iters $(PGO_ITERS)
	for d in cmd/*/; do cp default.pgo $$d; done

# Assert the committed profile is loadable and applied: a default build of a
# main package must record a `-pgo=<path>/default.pgo` build setting in
# `go version -m`, and a `-pgo=off` build of the same package must not
# record any -pgo setting. A corrupt or missing profile fails the first
# build or the first grep. Which batch the profile was recorded from (the
# paper corpus, under `make pgo`) is not checked here.
verify-pgo:
	@test -f cmd/localbench/default.pgo || { echo "verify-pgo: cmd/localbench/default.pgo missing (run make pgo)"; exit 1; }
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/with-pgo ./cmd/localbench && \
	$(GO) build -pgo=off -o $$tmp/no-pgo ./cmd/localbench && \
	$(GO) version -m $$tmp/with-pgo | grep -E 'build[[:space:]]+-pgo=.*default\.pgo' && \
	! $(GO) version -m $$tmp/no-pgo | grep -E 'build[[:space:]]+-pgo=' && \
	rm -rf $$tmp && echo "verify-pgo: profile applied by default build, absent under -pgo=off"
