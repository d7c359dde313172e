# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short bench cover report figures examples vet lint

all: build lint test

build:
	go build ./...

vet:
	go vet ./...

# Static analysis: go vet plus the project's determinism and
# simulation-safety analyzers (see docs/LINTING.md).
lint: vet
	go run ./cmd/mrlint ./...

test:
	go test ./...

test-short:
	go test -short ./...

# One iteration of every benchmark (figure-level in the module root
# plus the micro-benchmarks under internal/): a smoke test. The
# performance record is perfbench (bash perfbench/run.sh --workload W;
# see perfbench/README.md).
bench:
	go test -bench=. -benchmem -benchtime=1x -run='^$$' . ./internal/...

cover:
	go test ./internal/... -coverprofile=cover.out
	go tool cover -func=cover.out | tail -1

# Regenerate every paper artifact as text.
figures:
	go run ./cmd/mrexperiments -run all

# Self-contained HTML report with SVG charts.
report:
	go run ./cmd/mrexperiments -html report.html

examples:
	go run ./examples/quickstart
	go run ./examples/expedited
	go run ./examples/singlerun
	go run ./examples/multitenant
	go run ./examples/whatif
	go run ./examples/hotspot
